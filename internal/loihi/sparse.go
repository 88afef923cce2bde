package loihi

import (
	mbits "math/bits"

	"emstdp/internal/fixed"
)

// DeliveryMode selects how a connector iterates last step's presynaptic
// spikes. Both modes add each post neuron's inputs in the same
// ascending presynaptic order through the same saturating add, so they
// are bit-identical by construction; the hook exists so the equivalence
// tests can prove it end to end.
type DeliveryMode int

const (
	// DeliveryPacked is the production default: a dense group gathers
	// each post row over the presynaptic active list, a sparse group
	// walks the spike bitset with trailing-zeros iteration.
	DeliveryPacked DeliveryMode = iota
	// DeliveryDense scans the dense spike vector — the reference kernel
	// the equivalence suites compare against.
	DeliveryDense
)

// Connector is the routing abstraction the chip steps: dense plastic
// groups (SynapseGroup) and sparse fixed groups (SparseGroup) both
// implement it.
type Connector interface {
	// deliverRange routes last step's pre spikes into post compartments
	// [lo,hi) — the whole group or a multi-die shard of it — returning
	// synaptic events. tracePre guards the presynaptic trace so exactly
	// one shard maintains it per step.
	deliverRange(lo, hi int, tracePre bool) int64
	// stepLearningRange runs the per-step learning micro-ops for post
	// rows [lo,hi).
	stepLearningRange(lo, hi int)
	// applyEpochRange applies the eq (12) update to post rows [lo,hi),
	// returning ops performed; shards must be visited in ascending row
	// order to preserve the RNG stream.
	applyEpochRange(lo, hi int) int64
	// prepareRange lets a connector pre-index the synapses of a post-row
	// shard [lo,hi) before stepping begins (called at mesh registration;
	// full-range registration skips it). The connector must be fully
	// built — sparse groups must not gain synapses afterwards.
	prepareRange(lo, hi int)
	// resetPhaseTraces clears pre traces at the phase boundary.
	resetPhaseTraces()
	// reset clears all learning state at the sample boundary.
	reset()
	// setDelivery selects the spike-iteration kernel — the hook behind
	// Mesh.SetDelivery.
	setDelivery(m DeliveryMode)

	// GroupName identifies the group in errors and reports.
	GroupName() string
	// PrePopulation is the spike source (mesh traffic originates there).
	PrePopulation() *Population
	// PostPopulation is the destination (synapses live at its cores).
	PostPopulation() *Population
	// Synapses is the stored synapse count (for core memory accounting).
	Synapses() int
	// MaxFanIn is the largest per-compartment fan-in this group adds.
	MaxFanIn() int
}

// SynapseGroup (dense) Connector methods beyond those in synapse.go.

// GroupName returns the group's name.
func (g *SynapseGroup) GroupName() string { return g.Name }

// prepareRange is a no-op: the gather kernel reads any row range of W
// directly.
func (g *SynapseGroup) prepareRange(lo, hi int) {}

// PrePopulation returns the spike source population.
func (g *SynapseGroup) PrePopulation() *Population { return g.Pre }

// PostPopulation returns the destination population.
func (g *SynapseGroup) PostPopulation() *Population { return g.Post }

// Synapses returns Pre.N × Post.N.
func (g *SynapseGroup) Synapses() int { return g.Pre.N * g.Post.N }

// MaxFanIn returns Pre.N (all-to-all).
func (g *SynapseGroup) MaxFanIn() int { return g.Pre.N }

// SparseSynapse is one fixed connection.
type SparseSynapse struct {
	Post int
	W    int8
}

// SparseGroup is a fixed (non-plastic) connection with explicit per-pre
// adjacency lists — the storage used for convolutional layers (kernel
// windows) and one-to-one wiring (error injection, loss taps). Weights
// share a group exponent like the dense group.
type SparseGroup struct {
	Name string
	Pre  *Population
	Post *Population
	Exp  uint
	// fanOut[k] lists pre neuron k's outgoing synapses.
	fanOut [][]SparseSynapse

	// shardIdx caches per-registered-shard fan-out lists (built by
	// prepareRange at mesh registration) so range delivery walks only
	// the shard's own synapses instead of filtering the full adjacency
	// on every die each step.
	shardIdx []sparseShard

	synapses int
	maxFanIn int
	delivery DeliveryMode
}

// sparseShard is the pre-bucketed adjacency of post rows [lo,hi).
type sparseShard struct {
	lo, hi int
	fanOut [][]SparseSynapse
}

// NewSparseGroup builds an empty sparse group.
func NewSparseGroup(name string, pre, post *Population, exp uint) *SparseGroup {
	return &SparseGroup{
		Name: name, Pre: pre, Post: post, Exp: exp,
		fanOut: make([][]SparseSynapse, pre.N),
	}
}

// Add inserts a synapse from pre neuron k to post neuron o.
func (g *SparseGroup) Add(k, o int, w int8) {
	g.fanOut[k] = append(g.fanOut[k], SparseSynapse{Post: o, W: w})
	g.synapses++
}

// NewDiagonalGroup wires pre[i] → post[i] with a uniform weight —
// EMSTDP's error-injection and loss-tap connections.
func NewDiagonalGroup(name string, pre, post *Population, w int8, exp uint) *SparseGroup {
	if pre.N != post.N {
		panic("loihi: diagonal group needs equal population sizes")
	}
	g := NewSparseGroup(name, pre, post, exp)
	for i := 0; i < pre.N; i++ {
		g.Add(i, i, w)
	}
	return g
}

// finalizeFanIn computes the max per-post fan-in (cached).
func (g *SparseGroup) finalizeFanIn() {
	counts := make([]int, g.Post.N)
	for _, outs := range g.fanOut {
		for _, s := range outs {
			counts[s.Post]++
		}
	}
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	g.maxFanIn = m
}

// deliverRange routes spikes through the adjacency lists, iterating the
// presynaptic bitset instead of scanning the dense vector, and delivers
// the synapses whose post compartment lies in [lo,hi) — the whole group
// or a multi-die shard, whose adjacency prepareRange bucketed at
// registration. Per post neuron the contribution sequence (ascending pre
// index, insertion order within a pre fan-out list) is the same as the
// full kernel, so sharded delivery is bit-identical. Sparse groups carry
// no pre trace; tracePre is accepted for the Connector contract.
func (g *SparseGroup) deliverRange(lo, hi int, _ bool) int64 {
	if g.delivery == DeliveryDense {
		return g.deliverDenseRange(lo, hi)
	}
	fanOut := g.fanOut
	if !(lo == 0 && hi == g.Post.N) {
		fanOut = g.shardFanOut(lo, hi)
	}
	// Trailing-zeros iteration over the presynaptic bitset visits the
	// set bits in ascending order — the dense kernel's order, so the
	// saturating accumulation is identical.
	var events int64
	for wi, word := range g.Pre.SpikeBits().Words() {
		base := wi << 6
		for word != 0 {
			k := base + mbits.TrailingZeros64(word)
			word &= word - 1
			for _, syn := range fanOut[k] {
				g.Post.addInput(syn.Post, int32(syn.W)<<g.Exp)
			}
			events += int64(len(fanOut[k]))
		}
	}
	return events
}

// prepareRange pre-buckets the adjacency of post rows [lo,hi) (mesh
// registration hook; idempotent per range).
func (g *SparseGroup) prepareRange(lo, hi int) {
	if lo == 0 && hi == g.Post.N {
		return
	}
	if g.shardFanOut(lo, hi) != nil {
		return
	}
	fo := make([][]SparseSynapse, len(g.fanOut))
	for k, outs := range g.fanOut {
		for _, syn := range outs {
			if syn.Post >= lo && syn.Post < hi {
				fo[k] = append(fo[k], syn)
			}
		}
	}
	g.shardIdx = append(g.shardIdx, sparseShard{lo: lo, hi: hi, fanOut: fo})
}

// shardFanOut returns the bucketed adjacency of [lo,hi), or nil.
func (g *SparseGroup) shardFanOut(lo, hi int) [][]SparseSynapse {
	for i := range g.shardIdx {
		if s := &g.shardIdx[i]; s.lo == lo && s.hi == hi {
			return s.fanOut
		}
	}
	return nil
}

// deliverDenseRange is the reference dense-scan kernel, kept for the
// equivalence tests.
func (g *SparseGroup) deliverDenseRange(lo, hi int) int64 {
	var events int64
	pre := g.Pre.SpikeBits()
	for k := 0; k < g.Pre.N; k++ {
		if !pre.Get(k) {
			continue
		}
		for _, syn := range g.fanOut[k] {
			if syn.Post >= lo && syn.Post < hi {
				g.Post.addInput(syn.Post, int32(syn.W)<<g.Exp)
				events++
			}
		}
	}
	return events
}

// setDelivery selects the spike-iteration kernel.
func (g *SparseGroup) setDelivery(m DeliveryMode) { g.delivery = m }

// stepLearningRange is a no-op: sparse groups are fixed.
func (g *SparseGroup) stepLearningRange(lo, hi int) {}

// applyEpochRange is a no-op: sparse groups are fixed.
func (g *SparseGroup) applyEpochRange(lo, hi int) int64 { return 0 }

// resetPhaseTraces is a no-op.
func (g *SparseGroup) resetPhaseTraces() {}

// reset is a no-op.
func (g *SparseGroup) reset() {}

// GroupName returns the group's name.
func (g *SparseGroup) GroupName() string { return g.Name }

// PrePopulation returns the spike source population.
func (g *SparseGroup) PrePopulation() *Population { return g.Pre }

// PostPopulation returns the destination population.
func (g *SparseGroup) PostPopulation() *Population { return g.Post }

// Synapses returns the stored synapse count.
func (g *SparseGroup) Synapses() int { return g.synapses }

// MaxFanIn returns the largest per-compartment fan-in.
func (g *SparseGroup) MaxFanIn() int {
	if g.maxFanIn == 0 && g.synapses > 0 {
		g.finalizeFanIn()
	}
	return g.maxFanIn
}

// QuantizeInto converts a real weight to this group's mantissa domain.
func (g *SparseGroup) QuantizeInto(w float64, scale float64) int8 {
	unit := float64(int64(1) << g.Exp)
	return fixed.SatWeight(roundHalfAway(w * scale / unit))
}
