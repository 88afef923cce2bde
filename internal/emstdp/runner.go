package emstdp

import (
	"fmt"

	"emstdp/internal/engine"
	"emstdp/internal/snn"
	"emstdp/internal/spike"
)

// This file implements the engine.Runner contract: the full-precision
// network is one of the two backends the execution layer shards
// evaluation across. ProgramSample and RunPhases live in emstdp.go next
// to the dynamics they stage.

var _ engine.Runner = (*Network)(nil)

// ReadCounts returns a copy of the output layer's phase-1 spike counts
// from the most recent RunPhases.
func (n *Network) ReadCounts() []int {
	out := make([]int, n.layers[len(n.layers)-1].Out)
	copy(out, n.h1[len(n.h1)-1].Counts)
	return out
}

// ApplyUpdate applies eq (7) from this network's own post-RunPhases
// counters. u must be nil (see engine.Runner).
func (n *Network) ApplyUpdate(u engine.Update) {
	if u != nil {
		panic(fmt.Sprintf("emstdp: ApplyUpdate takes nil only, got %T", u))
	}
	n.apply()
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
