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
//
// A group is plastic once EnableLearning has given it learning state.
// Its learning engine runs EMSTDP's eq (12), Δw = 2η·ĥ·x − η·Z·x, and
// nothing else. Each step it adds one to a row's tag per postsynaptic
// spike (dt = y0), so the tag holds Z = ĥ + h across both phases. At a
// learning epoch it applies
//
//	Δw = StochasticShiftRound(x1·(2·y1 − tag), Shift)
//
// to every synapse, where x1 is the presynaptic trace and y1 the
// postsynaptic trace (ĥ), both counted over phase 2 only. Because
// Z = ĥ + h the raw value is (ĥ−h)·x, the delta rule of eq (7), computed
// from end-of-phase-2 state alone: Loihi cannot bank the phase-1 count h
// for later use.
type SynapseGroup struct {
	Name string
	Pre  *Population
	Post *Population
	// W is row-major Post.N × Pre.N int8 mantissas.
	W []int8
	// Exp is the shared weight exponent (contribution = mantissa << Exp).
	Exp uint
	// Shift is the learning-rate exponent, η = 2^-Shift. The update is
	// right-shifted with probabilistic rounding — Loihi's stochastic
	// rounding mode. With 8-bit mantissas, deterministic rounding kills
	// every update smaller than half a weight quantum; stochastic
	// rounding keeps them in expectation, which is what makes
	// small-learning-rate on-chip training converge. Zero applies the
	// update unshifted.
	Shift uint
	// FrozenPost, when set, excludes postsynaptic rows from updates — the
	// incremental-learning protocol freezes old-class classifier rows
	// this way (§IV-B). Its length must be Post.N.
	FrozenPost []bool

	// preTrace counts presynaptic spikes since the last phase reset
	// (Loihi's x1 trace configured with no decay).
	preTrace []uint8
	// tag is the per-postsynaptic-row synaptic tag. The tag rule dt = y0
	// gives every synapse of a row the same value, so it is stored once
	// per row.
	tag []int32
	// lrnRNG supplies random bits for stochastic rounding.
	lrnRNG *rng.Source

	// delivery selects the spike-iteration kernel (packed word traversal
	// by default; dense kept for the equivalence tests — see
	// Mesh.SetDelivery).
	delivery DeliveryMode

	// tape is the optional steps×Post.N drive record of phase-2 input
	// replay (EnableDriveTape); tapeMode and tapeRow say what this
	// step's delivery does with it (SetTape).
	tape     []int32
	tapeMode TapeMode
	tapeRow  []int32
}

// TapeMode is what a drive-taped group's delivery does in the current
// step (see EnableDriveTape).
type TapeMode uint8

const (
	// TapeLive delivers spike by spike and records nothing.
	TapeLive TapeMode = iota
	// TapeRecord delivers spike by spike and copies the drive it left in
	// the post accumulators into the step's tape row.
	TapeRecord
	// TapeReplay writes the step's tape row into the post accumulators
	// instead of scattering the spikes.
	TapeReplay
)

// NewSynapseGroup builds a group with zeroed weights.
func NewSynapseGroup(name string, pre, post *Population, exp uint) *SynapseGroup {
	return &SynapseGroup{
		Name: name,
		Pre:  pre,
		Post: post,
		W:    make([]int8, pre.N*post.N),
		Exp:  exp,
	}
}

// setDelivery selects the spike-iteration kernel.
func (g *SynapseGroup) setDelivery(m DeliveryMode) { g.delivery = m }

// EnableDriveTape allocates a steps-row record of the drive this group
// delivers into its post population — the store behind phase-2 input
// replay, where a step whose presynaptic spikes and weights repeat a
// recorded step copies that step's drive instead of scattering every
// spike again. Replay overwrites the post accumulators, so it is exact
// only while the group is the first connector into its post rows on
// every die (Chip.FirstInto, Mesh.FirstInto): it then adds into a zero
// accumulator, and the recorded drive already holds any saturation.
func (g *SynapseGroup) EnableDriveTape(steps int) {
	g.tape = make([]int32, steps*g.Post.N)
}

// SetTape selects what the next step's delivery does with tape row t:
// run live, record into it, or replay it. A schedule sets it before every
// step of a taped phase and returns the group to TapeLive afterwards.
func (g *SynapseGroup) SetTape(mode TapeMode, t int) {
	g.tapeMode = mode
	if mode != TapeLive {
		n := g.Post.N
		g.tapeRow = g.tape[t*n : (t+1)*n]
	}
}

// EnableLearning makes the group plastic: it sets the learning-rate
// shift and allocates the trace and tag state. seed drives the
// stochastic-rounding bit stream (deterministic per group).
func (g *SynapseGroup) EnableLearning(shift uint, seed uint64) {
	g.Shift = shift
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

// deliverRange routes last step's presynaptic spikes into post
// compartments [lo,hi), returning the number of synaptic events
// (per-spike fan-out deliveries). The simulator does work proportional
// to the SynapticEvents it counts, like the chip, and accumulates
// membrane input saturating-integer in the dense reference's order
// (ascending presynaptic index per post neuron) wherever a row can
// saturate, so results are bit-identical (see deliverPackedRange).
//
// [lo,hi) is the whole group or the shard a die hosts when the post
// population is range-partitioned (Loihi stores synapses at the
// destination, so a split post population splits the group's rows with
// it). tracePre guards the presynaptic trace update so exactly one shard
// per group maintains it.
//
// Under a drive tape (EnableDriveTape) the step's SetTape mode decides:
// TapeRecord copies the drive left in post rows [lo,hi) into the tape
// row after delivering, and TapeReplay writes the row back instead of
// delivering (replayRange).
func (g *SynapseGroup) deliverRange(lo, hi int, tracePre bool) int64 {
	var events int64
	switch {
	case g.tapeMode == TapeReplay:
		return g.replayRange(lo, hi, tracePre)
	case g.delivery == DeliveryDense:
		events = g.deliverDenseRange(lo, hi, tracePre)
	case g.Pre.activePrev.Len() > 0:
		events = g.deliverPackedRange(lo, hi, tracePre)
	}
	if g.tapeMode == TapeRecord {
		copy(g.tapeRow[lo:hi], g.Post.acc[lo:hi])
	}
	return events
}

// replayRange writes the recorded drive of this step into post rows
// [lo,hi) and keeps only the per-spike bookkeeping of a live delivery:
// the presynaptic trace increments and the synaptic events it reports
// (every active spike reaches each row of the span), so the learning
// engine and the energy counters see exactly what live delivery gives
// them.
func (g *SynapseGroup) replayRange(lo, hi int, tracePre bool) int64 {
	copy(g.Post.acc[lo:hi], g.tapeRow[lo:hi])
	active := g.Pre.activePrev.Indices()
	if tracePre && g.preTrace != nil {
		for _, k := range active {
			g.preTrace[k] = fixed.SatTrace(int64(g.preTrace[k]) + 1)
		}
	}
	return int64(len(active)) * int64(hi-lo)
}

// deliverPackedRange is the production kernel: a row gather over the
// presynaptic active list, which holds the spiking indices in ascending
// order. It reads W itself, so an in-place write of W is delivered on
// the next step with no view to invalidate.
//
// An int8 mantissa is at most 128 in magnitude, so no partial sum of a
// row's contributions over the active list exceeds
// reach = len(active)·128·2^Exp. A row whose accumulator lies in
// [StateMin+reach, StateMax−reach] therefore cannot saturate at any
// partial sum: it sums its mantissas in plain int32, shifts once and
// adds once, which equals the reference's saturating sequence exactly.
// Four such rows share one pass over the active list, so each index
// load feeds four independent sums. A row within reach of either bound
// (deliverRow) adds weight by weight with saturation in ascending
// presynaptic order — the dense reference's sequence. The reference
// skips zero weights; here every weight is added, since a zero adds
// nothing to an in-range accumulator and a branch on it mispredicts on
// learned weights.
func (g *SynapseGroup) deliverPackedRange(lo, hi int, tracePre bool) int64 {
	active := g.Pre.activePrev.Indices()
	if tracePre && g.preTrace != nil {
		for _, k := range active {
			g.preTrace[k] = fixed.SatTrace(int64(g.preTrace[k]) + 1)
		}
	}
	preN, exp := g.Pre.N, g.Exp
	// Past StateBits every row is within reach anyway; the clamp only
	// keeps the int64 shift from overflowing.
	reach := int64(len(active)) << (min(exp, fixed.StateBits) + 7)
	fastMin, fastMax := int64(fixed.StateMin)+reach, int64(fixed.StateMax)-reach
	acc := g.Post.acc[lo:hi]
	w := g.W[lo*preN : hi*preN]
	j := 0
	for ; j+4 <= len(acc); j += 4 {
		a := acc[j : j+4 : j+4]
		if int64(min(a[0], a[1], a[2], a[3])) < fastMin || int64(max(a[0], a[1], a[2], a[3])) > fastMax {
			for i := range a {
				a[i] = deliverRow(a[i], w[(j+i)*preN:(j+i+1)*preN], active, exp, fastMin, fastMax)
			}
			continue
		}
		r0 := w[j*preN : (j+1)*preN]
		r1 := w[(j+1)*preN : (j+2)*preN]
		r2 := w[(j+2)*preN : (j+3)*preN]
		r3 := w[(j+3)*preN : (j+4)*preN]
		var s0, s1, s2, s3 int32
		for _, k := range active {
			s0 += int32(r0[k])
			s1 += int32(r1[k])
			s2 += int32(r2[k])
			s3 += int32(r3[k])
		}
		a[0] += s0 << exp
		a[1] += s1 << exp
		a[2] += s2 << exp
		a[3] += s3 << exp
	}
	for ; j < len(acc); j++ {
		acc[j] = deliverRow(acc[j], w[j*preN:(j+1)*preN], active, exp, fastMin, fastMax)
	}
	return int64(len(active)) * int64(hi-lo)
}

// deliverRow delivers one row of deliverPackedRange: a plain sum when
// its accumulator a lies in [fastMin, fastMax], else the saturating
// per-weight sequence.
func deliverRow(a int32, row []int8, active []int32, exp uint, fastMin, fastMax int64) int32 {
	if int64(a) >= fastMin && int64(a) <= fastMax {
		var s int32
		for _, k := range active {
			s += int32(row[k])
		}
		return a + s<<exp
	}
	for _, k := range active {
		a = fixed.SatAdd32(a, int32(row[k])<<exp, fixed.StateMin, fixed.StateMax)
	}
	return a
}

// deliverDenseRange is the reference row-strided kernel, kept for the
// dense/sparse equivalence tests.
func (g *SynapseGroup) deliverDenseRange(lo, hi int, tracePre bool) int64 {
	var events int64
	preN := g.Pre.N
	pre := g.Pre.SpikeBits()
	for k := 0; k < preN; k++ {
		if !pre.Get(k) {
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

// stepLearningRange runs the per-step learning micro-op for post rows
// [lo,hi): the tag accumulation rule dt = y0 (one increment per
// postsynaptic spike, both phases).
func (g *SynapseGroup) stepLearningRange(lo, hi int) {
	if g.tag == nil {
		return
	}
	// Walk the words of the post population's fresh spikes that overlap
	// [lo,hi), masking off bits outside the range.
	words := g.Post.bitsNow.Words()
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		word := words[wi]
		base := wi << 6
		if base < lo {
			word &^= 1<<uint(lo-base) - 1
		}
		if hi-base < 64 {
			word &= 1<<uint(hi-base) - 1
		}
		for word != 0 {
			g.tag[base+mbits.TrailingZeros64(word)]++
			word &= word - 1
		}
	}
}

// applyEpochRange applies eq (12) to post rows [lo,hi), returning the
// number of learning operations performed. Each row computes
// c = 2·y1 − tag once; a row with c = 0 has Δw = 0 on every synapse and
// is skipped whole, and a synapse with x1 = 0 likewise. The
// stochastic-rounding bits — one per nonzero Δw — come from the group's
// single lrnRNG stream in row order, so a multi-die learning epoch that
// walks a group's shards in ascending row order draws exactly the
// single-die bit sequence.
func (g *SynapseGroup) applyEpochRange(lo, hi int) int64 {
	if g.tag == nil {
		return 0
	}
	preN := g.Pre.N
	for o := lo; o < hi; o++ {
		if g.FrozenPost != nil && g.FrozenPost[o] {
			continue
		}
		c := 2*int64(g.Post.postTrace[o]) - int64(g.tag[o])
		if c == 0 {
			continue
		}
		row := g.W[o*preN : (o+1)*preN]
		for k, x1 := range g.preTrace {
			if x1 == 0 {
				continue
			}
			dw := int64(x1) * c
			if g.Shift > 0 {
				dw = StochasticShiftRound(dw, g.Shift, g.lrnRNG.Uint64())
			}
			if dw != 0 {
				row[k] = fixed.SatWeight(int64(row[k]) + dw)
			}
		}
	}
	return int64((hi - lo) * preN)
}

// LearnState is a snapshot of the learning-engine inputs of one plastic
// group at the end of phase 2: the presynaptic trace, the per-row tag,
// and the postsynaptic population's trace. Together these are everything
// applyEpochRange reads besides the weights themselves, so comparing two
// groups' snapshots checks that their next learning epochs see the same
// inputs.
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

// CopyWeightsFrom copies another group's weight mantissas and exponent
// (replica weight synchronisation). The groups must have identical
// shapes.
func (g *SynapseGroup) CopyWeightsFrom(src *SynapseGroup) {
	if len(src.W) != len(g.W) {
		panic(fmt.Sprintf("loihi: group %q weight count %d != %d", g.Name, len(src.W), len(g.W)))
	}
	copy(g.W, src.W)
	g.Exp = src.Exp
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
