package chipnet

import (
	"fmt"
	"slices"

	"emstdp/internal/engine"
)

// This file implements the engine.Runner contract for the on-chip
// backend. ProgramSample, RunPhases and ReadCounts live in run.go next
// to the schedule they stage; here are the update and replica-building
// halves.
//
// A replica is a full rebuild of the netlist from the retained
// configuration (and frozen conv stack, shared read-only), followed by a
// plastic-weight copy. Replicas only classify; training runs on the
// master alone. Chip activity counters accrue on whichever chip ran the
// phases; energy harnesses that spread evaluation across replicas read
// the totals through the engine Group's deterministic replica-order
// reduction (engine.Group.Counters), pinned equal to the sequential
// single-chip run.

var _ engine.Runner = (*Network)(nil)

// ApplyUpdate fires the learning epoch from this chip's own
// post-RunPhases trace state. u must be nil (see engine.Runner).
func (n *Network) ApplyUpdate(u engine.Update) {
	if n.cfg.InferenceOnly {
		panic("chipnet: ApplyUpdate on an inference-only deployment")
	}
	if u != nil {
		panic(fmt.Sprintf("chipnet: ApplyUpdate takes nil only, got %T", u))
	}
	n.mesh.ApplyLearning()
}

// Clone rebuilds the same netlist (same configuration and seed, so all
// fixed structures — feedback matrices, conv front end — come out
// identical) and copies the current plastic weights and training masks.
func (n *Network) Clone() (*Network, error) {
	var c *Network
	var err error
	if n.convStack != nil {
		c, err = NewWithConv(n.cfg, n.convStack, n.convC, n.convH, n.convW)
	} else {
		c, err = New(n.cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := c.SyncWeights(n); err != nil {
		return nil, err
	}
	return c, nil
}

// CloneRunner implements engine.Runner.
func (n *Network) CloneRunner() (engine.Runner, error) { return n.Clone() }

// SyncWeights copies the plastic synapse mantissas and exponents plus
// the training-relevant masks — the incremental protocol's frozen rows
// and disabled error neurons, and the learning-rate shift — from src,
// which must be a *chipnet.Network with the same netlist shape. The
// masks make a synced replica a full copy of the master's training
// state, so it trains exactly as the master would.
func (n *Network) SyncWeights(src engine.Runner) error {
	s, ok := src.(*Network)
	if !ok {
		return fmt.Errorf("chipnet: cannot sync weights from %T", src)
	}
	if len(s.plastic) != len(n.plastic) {
		return fmt.Errorf("chipnet: sync plastic group count %d != %d", len(s.plastic), len(n.plastic))
	}
	for i, g := range n.plastic {
		sg := s.plastic[i]
		g.CopyWeightsFrom(sg)
		g.Shift = sg.Shift
		g.FrozenPost = slices.Clone(sg.FrozenPost)
	}
	if n.errOutPos != nil && s.errOutPos != nil {
		for i := 0; i < s.errOutPos.N; i++ {
			n.errOutPos.SetDisabled(i, s.errOutPos.Disabled(i))
			n.errOutNeg.SetDisabled(i, s.errOutNeg.Disabled(i))
		}
	}
	return nil
}
