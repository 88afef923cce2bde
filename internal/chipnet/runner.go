package chipnet

import (
	"fmt"
	"slices"

	"emstdp/internal/engine"
	"emstdp/internal/loihi"
)

// This file implements the engine.Runner contract for the on-chip
// backend. ProgramSample, RunPhases and ReadCounts live in run.go next
// to the schedule they stage; here are the update capture/apply and
// replica-building halves.
//
// A replica is a full rebuild of the netlist from the retained
// configuration (and frozen conv stack, shared read-only), followed by a
// plastic-weight copy. Replicas only ever run phases; the master chip
// applies every captured update in sample order, so the master's
// stochastic-rounding streams advance exactly as in a sequential run and
// parallel training is bit-identical for any worker count. Chip activity
// counters accrue on whichever chip ran the phases; energy harnesses
// that spread work across replicas read the totals through the engine
// Group's deterministic replica-order reduction (engine.Group.Counters),
// pinned equal to the sequential single-chip run.

var _ engine.Runner = (*Network)(nil)

// chipUpdate is the chip backend's captured learning state: one
// LearnState (pre trace, tag, post trace) per plastic group.
type chipUpdate struct {
	groups []loihi.LearnState
}

// CaptureUpdate snapshots the learning-engine inputs RunPhases(true)
// left in the plastic groups.
func (n *Network) CaptureUpdate() engine.Update {
	u := &chipUpdate{groups: make([]loihi.LearnState, len(n.plastic))}
	for i, g := range n.plastic {
		u.groups[i] = g.CaptureLearnState()
	}
	return u
}

// CaptureUpdateInto is CaptureUpdate recycling a previously captured
// snapshot's storage — the engine pipeline's zero-allocation steady
// state. A u of foreign type or shape (only possible across netlists,
// which replicas never mix) is discarded for a fresh snapshot.
func (n *Network) CaptureUpdateInto(u engine.Update) engine.Update {
	cu, ok := u.(*chipUpdate)
	if !ok || len(cu.groups) != len(n.plastic) {
		return n.CaptureUpdate()
	}
	for i, g := range n.plastic {
		g.CaptureLearnStateInto(&cu.groups[i])
	}
	return cu
}

// ApplyUpdate fires the learning epoch: from a captured snapshot u
// (restored into the plastic groups first), or from this chip's own
// post-RunPhases trace state when u is nil (the sequential path).
func (n *Network) ApplyUpdate(u engine.Update) {
	if n.cfg.InferenceOnly {
		panic("chipnet: ApplyUpdate on an inference-only deployment")
	}
	if u != nil {
		cu, ok := u.(*chipUpdate)
		if !ok {
			panic(fmt.Sprintf("chipnet: foreign update type %T", u))
		}
		if len(cu.groups) != len(n.plastic) {
			panic(fmt.Sprintf("chipnet: update carries %d groups, netlist has %d", len(cu.groups), len(n.plastic)))
		}
		for i, g := range n.plastic {
			g.RestoreLearnState(cu.groups[i])
		}
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
// masks matter for replicas: disabled error neurons gate phase-2 spikes,
// so a replica with a stale mask would compute different updates than
// the sequential path.
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
