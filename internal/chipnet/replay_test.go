package chipnet

import (
	"slices"
	"testing"

	"emstdp/internal/emstdp"
	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/rng"
)

// runPhasesRestep is the training pass before phase-2 replay: W1 runs
// live in both phases, so phase 2 scatters every presynaptic spike
// again. The boundary is production's, so the two passes differ only in
// how phase 2 gets W1's drive.
func runPhasesRestep(n *Network) {
	phase := func() {
		for t := 0; t < n.cfg.T; t++ {
			n.mesh.Step()
		}
	}
	phase()
	n.mesh.LatchGates()
	n.mesh.ResetPhaseTraces()
	n.mesh.ResetMembranes()
	n.programLabel(n.pendingLabel)
	n.phase.SetBiases(n.phaseOn)
	n.mesh.CountHostTransaction(1)
	phase()
}

// assertReplayMatches compares everything a training sample leaves
// behind on the two networks: plastic mantissas and learning state, the
// activity counters, the mesh traffic and the output traces.
func assertReplayMatches(t *testing.T, i int, replay, restep *Network) {
	t.Helper()
	for li, g := range replay.plastic {
		ref := restep.plastic[li]
		if !slices.Equal(g.W, ref.W) {
			t.Fatalf("sample %d: %s mantissas differ from the re-stepped reference", i, g.Name)
		}
		gs, rs := g.CaptureLearnState(), ref.CaptureLearnState()
		if !slices.Equal(gs.PreTrace, rs.PreTrace) {
			t.Fatalf("sample %d: %s pre trace %v, re-stepped %v", i, g.Name, gs.PreTrace, rs.PreTrace)
		}
		if !slices.Equal(gs.Tag, rs.Tag) {
			t.Fatalf("sample %d: %s tags %v, re-stepped %v", i, g.Name, gs.Tag, rs.Tag)
		}
		if !slices.Equal(gs.PostTrace, rs.PostTrace) {
			t.Fatalf("sample %d: %s post trace %v, re-stepped %v", i, g.Name, gs.PostTrace, rs.PostTrace)
		}
	}
	if got, want := replay.Counters(), restep.Counters(); got != want {
		t.Fatalf("sample %d: counters %+v, re-stepped %+v", i, got, want)
	}
	if got, want := replay.mesh.Traffic(), restep.mesh.Traffic(); got != want {
		t.Fatalf("sample %d: mesh traffic %+v, re-stepped %+v", i, got, want)
	}
	out, ref := replay.fwd[len(replay.fwd)-1], restep.fwd[len(restep.fwd)-1]
	if !slices.Equal(out.PostTraces(), ref.PostTraces()) {
		t.Fatalf("sample %d: output traces %v, re-stepped %v", i, out.PostTraces(), ref.PostTraces())
	}
}

// TestChipPhase2ReplayBitIdentical trains one network through the
// production schedule, whose phase 2 replays W1's phase-1 drive, and a
// twin through the re-stepping reference, sample by sample. After every
// sample the plastic mantissas, every group's learning state, all
// activity counters, the mesh traffic and the output traces must agree
// exactly — over one die and a 2×2 range-partitioned mesh, DFA and FA,
// one and two hidden layers, the conv front end, disabled outputs and
// the dense delivery kernel.
func TestChipPhase2ReplayBitIdentical(t *testing.T) {
	type tc struct {
		name     string
		sizes    []int
		mode     emstdp.FeedbackMode
		dies     int
		conv     bool
		disabled bool
		dense    bool
	}
	cases := []tc{
		{name: "DFA-1hidden", sizes: []int{40, 30, 10}, mode: emstdp.DFA},
		{name: "FA-1hidden", sizes: []int{40, 30, 10}, mode: emstdp.FA},
		{name: "DFA-2hidden", sizes: []int{40, 30, 20, 10}, mode: emstdp.DFA},
		{name: "FA-2hidden", sizes: []int{40, 30, 20, 10}, mode: emstdp.FA},
		{name: "mesh2x2-DFA-1hidden", sizes: []int{40, 30, 10}, mode: emstdp.DFA, dies: 4},
		{name: "mesh2x2-FA-2hidden", sizes: []int{40, 30, 20, 10}, mode: emstdp.FA, dies: 4},
		{name: "conv-DFA", mode: emstdp.DFA, conv: true},
		{name: "DFA-outputDisabled", sizes: []int{40, 30, 10}, mode: emstdp.DFA, disabled: true},
		{name: "FA-2hidden-denseDelivery", sizes: []int{40, 30, 20, 10}, mode: emstdp.FA, dense: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			samples := 25
			sizes := c.sizes
			build := func(cfg Config) (*Network, error) { return New(cfg) }
			if c.conv {
				if testing.Short() {
					t.Skip("conv front end is slow")
				}
				cs, _ := buildCalibratedStack(t, 10)
				sizes = []int{cs.OutSize(), 16, 10}
				build = func(cfg Config) (*Network, error) { return NewWithConv(cfg, cs, 1, 28, 28) }
				samples = 4
			}
			cfg := DefaultConfig(sizes...)
			cfg.Mode = c.mode
			cfg.Seed = 29
			if c.dies > 1 {
				cfg.Chips = c.dies
				cfg.Partition = mapping.StrategyRange
				cfg.Topology = loihi.Topology{Kind: loihi.TopoMesh}
			}
			replay, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			restep, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh := make([][]int8, len(replay.plastic))
			for li, g := range replay.plastic {
				fresh[li] = slices.Clone(g.W)
			}
			if c.disabled {
				mask := make([]bool, sizes[len(sizes)-1])
				mask[2], mask[7] = true, true
				replay.SetOutputDisabled(mask)
				restep.SetOutputDisabled(mask)
			}
			if c.dense {
				replay.mesh.SetDelivery(loihi.DeliveryDense)
				restep.mesh.SetDelivery(loihi.DeliveryDense)
			}
			in := replay.inputPop().N
			xs, ys := chipStream(rng.New(77), in, sizes[len(sizes)-1], samples)
			for i := range xs {
				replay.TrainSample(xs[i], ys[i])
				restep.ProgramSample(xs[i], ys[i])
				runPhasesRestep(restep)
				restep.ApplyUpdate(nil)
				assertReplayMatches(t, i, replay, restep)
			}
			learned := false
			for li, g := range replay.plastic {
				learned = learned || !slices.Equal(g.W, fresh[li])
			}
			if !learned {
				t.Fatal("no weight moved: the comparison proves nothing")
			}
		})
	}
}
