package emstdp

import (
	"fmt"

	"emstdp/internal/engine"
	"emstdp/internal/snn"
	"emstdp/internal/spike"
)

// This file implements the engine.Runner contract: the full-precision
// network is one of the two backends the execution layer shards work
// across. ProgramSample and RunPhases live in emstdp.go next to the
// dynamics they stage.

var _ engine.Runner = (*Network)(nil)

// fpUpdate is the full-precision backend's captured learning state: the
// phase spike counters eq (7) consumes.
type fpUpdate struct {
	enc []int
	h1  [][]int
	h2  [][]int
}

// ReadCounts returns a copy of the output layer's phase-1 spike counts
// from the most recent RunPhases.
func (n *Network) ReadCounts() []int {
	out := make([]int, n.layers[len(n.layers)-1].Out)
	copy(out, n.h1[len(n.h1)-1].Counts)
	return out
}

// CaptureUpdate snapshots the counters RunPhases(true) left behind so
// the update can be applied on another replica (the master) later.
func (n *Network) CaptureUpdate() engine.Update {
	u := &fpUpdate{
		enc: append([]int(nil), n.encCount.Counts...),
		h1:  make([][]int, len(n.h1)),
		h2:  make([][]int, len(n.h2)),
	}
	for i := range n.h1 {
		u.h1[i] = append([]int(nil), n.h1[i].Counts...)
		u.h2[i] = append([]int(nil), n.h2[i].Counts...)
	}
	return u
}

// CaptureUpdateInto is CaptureUpdate recycling a previously captured
// snapshot's storage — the engine pipeline's zero-allocation steady
// state. A u of foreign type or shape (only possible across topologies,
// which replicas never mix) is discarded for a fresh snapshot.
func (n *Network) CaptureUpdateInto(u engine.Update) engine.Update {
	fu, ok := u.(*fpUpdate)
	if !ok || len(fu.enc) != len(n.encCount.Counts) || len(fu.h1) != len(n.h1) {
		return n.CaptureUpdate()
	}
	for i := range n.h1 {
		if len(fu.h1[i]) != len(n.h1[i].Counts) || len(fu.h2[i]) != len(n.h2[i].Counts) {
			return n.CaptureUpdate()
		}
	}
	copy(fu.enc, n.encCount.Counts)
	for i := range n.h1 {
		copy(fu.h1[i], n.h1[i].Counts)
		copy(fu.h2[i], n.h2[i].Counts)
	}
	return fu
}

// ApplyUpdate applies eq (7) from a captured snapshot, or from this
// network's own post-RunPhases counters when u is nil (the
// allocation-free sequential path).
func (n *Network) ApplyUpdate(u engine.Update) {
	if u == nil {
		// applyH1V/applyH2V are prebuilt views over the live counters, so
		// the sequential path allocates nothing.
		n.applyFrom(n.encCount.Counts, n.applyH1V, n.applyH2V)
		return
	}
	fu, ok := u.(*fpUpdate)
	if !ok {
		panic(fmt.Sprintf("emstdp: foreign update type %T", u))
	}
	n.applyFrom(fu.enc, fu.h1, fu.h2)
}

// Clone returns a replica: same configuration, a copy of the current
// weights and training masks, fresh dynamic state. The fixed feedback
// matrices are shared read-only with the parent — they never change
// after initialisation, and sharing keeps replicas cheap for wide
// feedback (FA) topologies.
func (n *Network) Clone() *Network {
	cfg := n.cfg
	in := cfg.LayerSizes[0]
	out := cfg.LayerSizes[len(cfg.LayerSizes)-1]
	c := &Network{
		cfg:          cfg,
		eta:          n.eta,
		quantRNG:     n.quantRNG.Clone(),
		pendingLabel: -1,
		b:            n.b, // fixed after init: shared read-only
	}
	c.enc, c.labelEnc = newEncoders(cfg)
	for _, l := range n.layers {
		c.layers = append(c.layers, l.Clone())
	}
	c.errOut = snn.NewErrChannel(out, cfg.ThetaErr)
	if n.errRelay != nil {
		c.errRelay = snn.NewErrChannel(out, cfg.ThetaErr)
	}
	c.errHidden = make([]*snn.ErrChannel, len(n.errHidden))
	for i, e := range n.errHidden {
		c.errHidden[i] = snn.NewErrChannel(e.Len(), cfg.ThetaErr)
	}
	c.encCount = spike.NewCounter(in)
	for _, l := range c.layers {
		c.h1 = append(c.h1, spike.NewCounter(l.Out))
		c.h2 = append(c.h2, spike.NewCounter(l.Out))
	}
	c.outputDisabled = append([]bool(nil), n.outputDisabled...)
	c.initScratch()
	return c
}

// CloneRunner implements engine.Runner.
func (n *Network) CloneRunner() (engine.Runner, error) { return n.Clone(), nil }

// SyncWeights copies the trainable weights, learning rate and output
// mask from src, which must be an *emstdp.Network of the same topology.
func (n *Network) SyncWeights(src engine.Runner) error {
	s, ok := src.(*Network)
	if !ok {
		return fmt.Errorf("emstdp: cannot sync weights from %T", src)
	}
	if len(s.layers) != len(n.layers) {
		return fmt.Errorf("emstdp: sync layer count %d != %d", len(s.layers), len(n.layers))
	}
	for i, l := range n.layers {
		sl := s.layers[i]
		if len(sl.W) != len(l.W) {
			return fmt.Errorf("emstdp: sync layer %d size %d != %d", i, len(sl.W), len(l.W))
		}
		copy(l.W, sl.W)
		copy(l.Bias, sl.Bias)
		l.MarkWeightsDirty()
	}
	n.eta = s.eta
	copy(n.outputDisabled, s.outputDisabled)
	return nil
}
