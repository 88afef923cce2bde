package loihi

import (
	"fmt"
	mbits "math/bits"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
)

// SynapseGroup is a dense all-to-all connection between two populations
// with signed 8-bit weights and a shared power-of-two weight exponent:
// the membrane contribution of a spike through synapse (o,k) is
// W[o*Pre.N+k] << Exp.
type SynapseGroup struct {
	Name string
	Pre  *Population
	Post *Population
	// W is row-major Post.N × Pre.N int8 mantissas.
	W []int8
	// Exp is the shared weight exponent (contribution = mantissa << Exp).
	Exp uint
	// Rule, when non-nil, makes this group plastic: the learning engine
	// maintains a presynaptic trace and per-post tag, and applies the
	// rule at learning epochs.
	Rule *Rule

	// preTrace counts presynaptic spikes since the last phase reset
	// (Loihi's x1 trace configured with no decay).
	preTrace []uint8
	// tag is the per-postsynaptic-row synaptic tag variable. EMSTDP's
	// tag rule (dt = y0) gives every synapse of a row the same value, so
	// it is stored once per row; see Rule for the engine semantics.
	tag []int32
	// lrnRNG supplies random bits for stochastic rounding.
	lrnRNG *rng.Source

	// wt is the column-major (Pre.N×Post.N) transposed weight view:
	// delivering one presynaptic spike reads a contiguous run instead of
	// a Pre.N-strided walk of W. Rebuilt lazily when wtDirty; every
	// writer of W must set the flag (MarkWeightsDirty).
	wt      []int8
	wtDirty bool
	// delivery selects the spike-iteration kernel (packed word traversal
	// by default; dense kept for the equivalence tests — see
	// Chip.SetDelivery).
	delivery DeliveryMode
}

// NewSynapseGroup builds a group with zeroed weights.
func NewSynapseGroup(name string, pre, post *Population, exp uint) *SynapseGroup {
	g := &SynapseGroup{
		Name:    name,
		Pre:     pre,
		Post:    post,
		W:       make([]int8, pre.N*post.N),
		wt:      make([]int8, pre.N*post.N),
		wtDirty: true,
		Exp:     exp,
	}
	return g
}

// MarkWeightsDirty invalidates the transposed weight view after W was
// written in place (the learning epoch and the weight-loading paths call
// it; any external writer of W must too).
func (g *SynapseGroup) MarkWeightsDirty() { g.wtDirty = true }

// ensureTransposed rebuilds the Pre.N×Post.N view if W changed since the
// last build — once per weight write (per sample under EMSTDP), not per
// step.
func (g *SynapseGroup) ensureTransposed() {
	if !g.wtDirty {
		return
	}
	preN, postN := g.Pre.N, g.Post.N
	for o := 0; o < postN; o++ {
		row := g.W[o*preN : (o+1)*preN]
		for k, w := range row {
			g.wt[k*postN+o] = w
		}
	}
	g.wtDirty = false
}

// setDelivery selects the spike-iteration kernel.
func (g *SynapseGroup) setDelivery(m DeliveryMode) { g.delivery = m }

// EnableLearning attaches a rule and allocates trace state. seed drives
// the stochastic-rounding bit stream (deterministic per group).
func (g *SynapseGroup) EnableLearning(rule *Rule, seed uint64) {
	g.Rule = rule
	g.preTrace = make([]uint8, g.Pre.N)
	g.tag = make([]int32, g.Post.N)
	g.lrnRNG = rng.New(seed)
}

// SetWeightsFloat quantizes real-valued weights (row-major post×pre, in
// units where one unit of membrane per spike = 1.0/scale... concretely:
// effective integer contribution = round(w*scale) split into mantissa and
// the group exponent). headroom multiplies the quantization range so
// learned weights can grow past their initial magnitude before clipping.
func (g *SynapseGroup) SetWeightsFloat(w []float64, scale, headroom float64) {
	if len(w) != len(g.W) {
		panic(fmt.Sprintf("loihi: group %q weight count %d != %d", g.Name, len(w), len(g.W)))
	}
	maxAbs := 0.0
	for _, v := range w {
		a := v * scale
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if headroom < 1 {
		headroom = 1
	}
	q := fixed.NewQuantizer(maxAbs * headroom)
	exp := q.Exp
	if exp < 0 {
		// Negative exponents are not representable by the integer shift;
		// clamp to 0 (mantissa = rounded integer contribution).
		exp = 0
	}
	g.Exp = uint(exp)
	unit := float64(int64(1) << g.Exp)
	for i, v := range w {
		g.W[i] = fixed.SatWeight(int64(roundHalfAway(v * scale / unit)))
	}
	g.MarkWeightsDirty()
}

func roundHalfAway(x float64) int64 {
	if x >= 0 {
		return int64(x + 0.5)
	}
	return -int64(-x + 0.5)
}

// WeightFloat returns the effective real value of synapse (o, k) given
// the scale used at SetWeightsFloat time.
func (g *SynapseGroup) WeightFloat(o, k int, scale float64) float64 {
	return float64(int32(g.W[o*g.Pre.N+k])<<g.Exp) / scale
}

// deliver routes last step's presynaptic spikes into the post
// population, returning the number of synaptic events (per-spike fan-out
// deliveries). The event-driven kernel walks the presynaptic spike
// bitset and scatters each spike's contiguous transposed weight
// column — the simulator finally does work proportional to the
// SynapticEvents it counts, like the chip. Membrane accumulation is
// saturating-integer in the same order as the dense reference (ascending
// presynaptic index per post neuron), so results are bit-identical.
func (g *SynapseGroup) deliver() int64 { return g.deliverRange(0, g.Post.N, true) }

// deliverRange delivers into post compartments [lo,hi) only — the shard
// of the group a die hosts when the post population is range-partitioned
// (Loihi stores synapses at the destination, so a split post population
// splits the group's rows with it). tracePre guards the presynaptic
// trace update so exactly one shard per group maintains it. Per post
// neuron the contribution order (ascending presynaptic index) is the
// same as the full kernel, so sharded delivery is bit-identical.
func (g *SynapseGroup) deliverRange(lo, hi int, tracePre bool) int64 {
	if g.delivery == DeliveryDense {
		return g.deliverDenseRange(lo, hi, tracePre)
	}
	if g.Pre.activePrev.Len() == 0 {
		return 0
	}
	g.ensureTransposed()
	return g.deliverPackedRange(lo, hi, tracePre)
}

// deliverPackedRange is the production kernel: trailing-zeros iteration
// over the presynaptic spike bitset scans the nonzero words and scatters
// each set bit's transposed weight column in ascending presynaptic
// order — the dense reference's order, so the saturating accumulation is
// bit-identical while the spike iteration itself costs one popcount-
// bounded loop per 64 presynaptic neurons.
func (g *SynapseGroup) deliverPackedRange(lo, hi int, tracePre bool) int64 {
	postN := g.Post.N
	var events int64
	if lo == 0 && hi == postN {
		// Full-range fast path (the single-die hot loop): no per-synapse
		// index offset.
		for wi, word := range g.Pre.SpikeBits().Words() {
			base := wi << 6
			for word != 0 {
				k := base + mbits.TrailingZeros64(word)
				word &= word - 1
				if tracePre && g.preTrace != nil {
					g.preTrace[k] = fixed.SatTrace(int64(g.preTrace[k]) + 1)
				}
				col := g.wt[k*postN : (k+1)*postN]
				for o, w := range col {
					if w != 0 {
						g.Post.addInput(o, int32(w)<<g.Exp)
					}
				}
				events += int64(postN)
			}
		}
		return events
	}
	span := int64(hi - lo)
	for wi, word := range g.Pre.SpikeBits().Words() {
		base := wi << 6
		for word != 0 {
			k := base + mbits.TrailingZeros64(word)
			word &= word - 1
			if tracePre && g.preTrace != nil {
				g.preTrace[k] = fixed.SatTrace(int64(g.preTrace[k]) + 1)
			}
			col := g.wt[k*postN+lo : k*postN+hi]
			for o, w := range col {
				if w != 0 {
					g.Post.addInput(lo+o, int32(w)<<g.Exp)
				}
			}
			events += span
		}
	}
	return events
}

// deliverDenseRange is the reference row-strided kernel, kept for the
// dense/sparse equivalence tests.
func (g *SynapseGroup) deliverDenseRange(lo, hi int, tracePre bool) int64 {
	var events int64
	preN := g.Pre.N
	for k, s := range g.Pre.Spikes() {
		if !s {
			continue
		}
		if tracePre && g.preTrace != nil {
			g.preTrace[k] = fixed.SatTrace(int64(g.preTrace[k]) + 1)
		}
		for o := lo; o < hi; o++ {
			w := g.W[o*preN+k]
			if w != 0 {
				g.Post.addInput(o, int32(w)<<g.Exp)
			}
		}
		events += int64(hi - lo)
	}
	return events
}

// stepLearning runs per-step learning micro-ops: the tag accumulation
// rule dt = y0 (one increment per postsynaptic spike, both phases).
func (g *SynapseGroup) stepLearning() { g.stepLearningRange(0, g.Post.N) }

// stepLearningRange runs the tag micro-op for post rows [lo,hi).
func (g *SynapseGroup) stepLearningRange(lo, hi int) {
	if g.Rule == nil || !g.Rule.TagCountsPostSpikes {
		return
	}
	for o := lo; o < hi; o++ {
		if g.Post.spikesNow[o] {
			g.tag[o]++
		}
	}
}

// applyEpoch applies the weight update rule over all synapses, returning
// the number of learning operations performed.
func (g *SynapseGroup) applyEpoch() int64 { return g.applyEpochRange(0, g.Post.N) }

// applyEpochRange applies the rule to post rows [lo,hi). The
// stochastic-rounding bits come from the group's single lrnRNG stream in
// row order, so a multi-die learning epoch that walks a group's shards
// in ascending row order draws exactly the single-die bit sequence.
func (g *SynapseGroup) applyEpochRange(lo, hi int) int64 {
	if g.Rule == nil {
		return 0
	}
	preN := g.Pre.N
	for o := lo; o < hi; o++ {
		if g.Rule.FrozenPost != nil && g.Rule.FrozenPost[o] {
			continue
		}
		row := g.W[o*preN : (o+1)*preN]
		y1 := int64(g.Post.postTrace[o])
		tg := int64(g.tag[o])
		for k := 0; k < preN; k++ {
			x1 := int64(g.preTrace[k])
			if x1 == 0 {
				continue // every product term carries x1; zero pre-trace means no update
			}
			var dw int64
			if s := g.Rule.StochasticShift; s > 0 {
				raw := g.Rule.EvalRaw(x1, y1, tg, int64(row[k]))
				if raw != 0 {
					dw = StochasticShiftRound(raw, s, g.lrnRNG.Uint64())
				}
			} else {
				dw = g.Rule.Eval(x1, y1, tg, int64(row[k]))
			}
			if dw != 0 {
				row[k] = fixed.SatWeight(int64(row[k]) + dw)
			}
		}
	}
	// Weights changed in place: invalidate the transposed delivery view
	// (once per learning epoch — per sample — not per step).
	g.MarkWeightsDirty()
	return int64((hi - lo) * preN)
}

// LearnState is a snapshot of the learning-engine inputs of one plastic
// group at the end of phase 2: the presynaptic trace, the per-row tag,
// and the postsynaptic population's trace. Together these are everything
// applyEpoch reads besides the weights themselves, so a snapshot
// captured on a replica chip can be restored onto another chip with the
// same netlist and applied there — the mechanism the execution engine
// uses to run batch members on replicas while the master chip applies
// the updates in sample order.
type LearnState struct {
	PreTrace  []uint8
	Tag       []int32
	PostTrace []uint8
}

// CaptureLearnState copies the group's current learning state. Only
// valid on plastic groups (EnableLearning was called).
func (g *SynapseGroup) CaptureLearnState() LearnState {
	return LearnState{
		PreTrace:  append([]uint8(nil), g.preTrace...),
		Tag:       append([]int32(nil), g.tag...),
		PostTrace: append([]uint8(nil), g.Post.postTrace...),
	}
}

// CaptureLearnStateInto copies the group's current learning state into
// dst, reusing dst's slices when their shapes match (the execution
// engine recycles snapshots so its pipelined steady state allocates
// nothing). A dst of foreign shape is replaced with a fresh snapshot.
func (g *SynapseGroup) CaptureLearnStateInto(dst *LearnState) {
	if len(dst.PreTrace) != len(g.preTrace) || len(dst.Tag) != len(g.tag) ||
		len(dst.PostTrace) != len(g.Post.postTrace) {
		*dst = g.CaptureLearnState()
		return
	}
	copy(dst.PreTrace, g.preTrace)
	copy(dst.Tag, g.tag)
	copy(dst.PostTrace, g.Post.postTrace)
}

// RestoreLearnState loads a captured snapshot into the group (and its
// postsynaptic population's trace), overwriting whatever the last run
// left behind. The stochastic-rounding stream is NOT part of the
// snapshot: the applying chip draws from its own lrnRNG, which is what
// keeps replica-computed training bit-identical to a sequential walk on
// the applying chip.
func (g *SynapseGroup) RestoreLearnState(s LearnState) {
	copy(g.preTrace, s.PreTrace)
	copy(g.tag, s.Tag)
	copy(g.Post.postTrace, s.PostTrace)
}

// CopyWeightsFrom copies another group's weight mantissas and exponent
// (replica weight synchronisation). The groups must have identical
// shapes.
func (g *SynapseGroup) CopyWeightsFrom(src *SynapseGroup) {
	if len(src.W) != len(g.W) {
		panic(fmt.Sprintf("loihi: group %q weight count %d != %d", g.Name, len(src.W), len(g.W)))
	}
	copy(g.W, src.W)
	g.Exp = src.Exp
	g.MarkWeightsDirty()
}

// PerturbWeights adds zero-mean Gaussian drift of the given standard
// deviation (in mantissa units) to every weight, saturating at the int8
// range — a model of analog device variation / memristive conductance
// drift that fielded neuromorphic hardware accumulates. The paper argues
// in-hardware learning exists precisely to compensate such drift (§I);
// the adaptation experiment uses this hook.
func (g *SynapseGroup) PerturbWeights(r *rng.Source, sd float64) {
	for i, w := range g.W {
		g.W[i] = fixed.SatWeight(int64(w) + int64(r.NormScaled(0, sd)))
	}
	g.MarkWeightsDirty()
}

// resetPhaseTraces zeroes the pre trace (tags persist across the phase
// boundary by design).
func (g *SynapseGroup) resetPhaseTraces() {
	for i := range g.preTrace {
		g.preTrace[i] = 0
	}
}

// reset zeroes all learning state (sample boundary).
func (g *SynapseGroup) reset() {
	for i := range g.preTrace {
		g.preTrace[i] = 0
	}
	for i := range g.tag {
		g.tag[i] = 0
	}
}
