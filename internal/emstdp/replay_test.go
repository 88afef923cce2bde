package emstdp

import (
	"math"
	"slices"
	"testing"

	"emstdp/internal/rng"
	"emstdp/internal/snn"
)

// runPhasesRestep is the training pass before phase-2 replay: phase 2
// resets the encoder with the layers and re-steps both, observing the
// encoder counts there. The error loop is production's correctStep, so
// the two passes differ only in how phase 2 gets its input side.
func runPhasesRestep(n *Network) {
	for t := 0; t < n.cfg.T; t++ {
		n.forwardStep(nil, n.h1)
	}
	n.enc.Reset()
	for _, l := range n.layers {
		l.Reset()
	}
	n.latchGates(n.h1)
	for t := 0; t < n.cfg.T; t++ {
		n.forwardStep(n.encCount, n.h2)
		n.correctStep()
	}
}

// TestPhase2ReplayBitIdentical trains one network through RunPhases(true),
// which replays phase 1's encoder spikes and layer-0 drive in phase 2,
// and a twin through the re-stepping reference, sample by sample. Every
// sample's encoder, phase-1 and phase-2 counts must agree, and the
// learned weights must match bit for bit — across feedback modes,
// depths, the quantized pow2 grid, disabled outputs and the dense
// kernel, so a phase-2 bug cannot hide behind one configuration.
func TestPhase2ReplayBitIdentical(t *testing.T) {
	type tc struct {
		name     string
		sizes    []int
		mode     FeedbackMode
		quant    bool
		disabled bool
		dense    bool
	}
	cases := []tc{
		{name: "DFA-1hidden", sizes: []int{40, 30, 6}, mode: DFA},
		{name: "FA-1hidden", sizes: []int{40, 30, 6}, mode: FA},
		{name: "DFA-2hidden", sizes: []int{40, 30, 20, 6}, mode: DFA},
		{name: "FA-2hidden", sizes: []int{40, 30, 20, 6}, mode: FA},
		{name: "DFA-quant8pow2", sizes: []int{40, 30, 6}, mode: DFA, quant: true},
		{name: "FA-2hidden-quant8pow2", sizes: []int{40, 30, 20, 6}, mode: FA, quant: true},
		{name: "DFA-outputDisabled", sizes: []int{40, 30, 6}, mode: DFA, disabled: true},
		{name: "DFA-denseKernel", sizes: []int{40, 30, 6}, mode: DFA, dense: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(c.sizes...)
			cfg.Mode = c.mode
			cfg.Seed = 31
			if c.quant {
				cfg.QuantBits = 8
				cfg.QuantPow2 = true
			}
			replay, restep := New(cfg), New(cfg)
			if c.disabled {
				mask := make([]bool, c.sizes[len(c.sizes)-1])
				mask[1], mask[4] = true, true
				replay.SetOutputDisabled(mask)
				restep.SetOutputDisabled(mask)
			}
			if c.dense {
				replay.SetKernel(snn.KernelDense)
				restep.SetKernel(snn.KernelDense)
			}
			xs, ys := trainStream(rng.New(404), c.sizes[0], c.sizes[len(c.sizes)-1], 40)
			for i := range xs {
				replay.ProgramSample(xs[i], ys[i])
				replay.RunPhases(true)
				restep.ProgramSample(xs[i], ys[i])
				runPhasesRestep(restep)
				if !slices.Equal(replay.encCount.Counts, restep.encCount.Counts) {
					t.Fatalf("sample %d: encoder counts %v, re-stepped %v", i, replay.encCount.Counts, restep.encCount.Counts)
				}
				for li := range replay.h1 {
					if !slices.Equal(replay.h1[li].Counts, restep.h1[li].Counts) {
						t.Fatalf("sample %d layer %d: h1 %v, re-stepped %v", i, li, replay.h1[li].Counts, restep.h1[li].Counts)
					}
					if !slices.Equal(replay.h2[li].Counts, restep.h2[li].Counts) {
						t.Fatalf("sample %d layer %d: h2 %v, re-stepped %v", i, li, replay.h2[li].Counts, restep.h2[li].Counts)
					}
				}
				replay.ApplyUpdate(nil)
				restep.ApplyUpdate(nil)
			}
			learned := false
			for li := 0; li < replay.NumLayers(); li++ {
				wr, ws := replay.Layer(li).W, restep.Layer(li).W
				for k := range wr {
					if math.Float64bits(wr[k]) != math.Float64bits(ws[k]) {
						t.Fatalf("layer %d weight %d: replayed %v, re-stepped %v", li, k, wr[k], ws[k])
					}
				}
				fresh := New(cfg).Layer(li).W
				for k := range wr {
					learned = learned || wr[k] != fresh[k]
				}
			}
			if !learned {
				t.Fatal("no weight moved: the comparison proves nothing")
			}
		})
	}
}
