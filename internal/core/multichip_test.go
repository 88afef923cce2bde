package core

import (
	"testing"

	"emstdp/internal/dataset"
	"emstdp/internal/loihi"
)

// TestChipsFlowThrough pins the Options → chipnet wiring for the die
// count: a single-die model builds a one-die mesh that moves no traffic,
// and a sharded model builds, exposes its mesh, trains and evaluates
// bit-identically to the single-die model at the same seed, and
// accumulates mesh traffic while doing so.
func TestChipsFlowThrough(t *testing.T) {
	drive := func(chips int, strategy string) (*Model, []int) {
		opts := smallOpts(Chip)
		opts.TrainSamples, opts.TestSamples = 60, 30
		opts.Chips = chips
		opts.PartitionStrategy = strategy
		m, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		m.Train(1)
		preds := make([]int, 0, len(m.TestFeatures()))
		for _, s := range m.TestFeatures() {
			preds = append(preds, m.Predict(s.X))
		}
		return m, preds
	}

	ref, refPreds := drive(1, "")
	if mesh := ref.ChipNetwork().Mesh(); mesh.NumDies() != 1 {
		t.Fatalf("single-die model built a %d-die mesh", mesh.NumDies())
	}
	if tr := ref.ChipNetwork().Mesh().Traffic(); tr != (loihi.MeshTraffic{}) {
		t.Fatalf("single-die model moved mesh traffic %+v", tr)
	}
	for _, strategy := range []string{"population", "range"} {
		m, preds := drive(2, strategy)
		net := m.ChipNetwork()
		if net.Mesh().NumDies() != 2 {
			t.Fatalf("%s: expected a 2-die mesh", strategy)
		}
		if err := net.PartitionPlan().Validate(); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		for i := range refPreds {
			if preds[i] != refPreds[i] {
				t.Fatalf("%s: prediction %d diverged: got %d want %d", strategy, i, preds[i], refPreds[i])
			}
		}
		if got, want := net.Counters(), ref.ChipNetwork().Counters(); got != want {
			t.Fatalf("%s: counters diverged:\nmesh   %+v\nsingle %+v", strategy, got, want)
		}
		if net.Mesh().Traffic().CrossDieSpikes == 0 {
			t.Fatalf("%s: no cross-die traffic on a 2-die board", strategy)
		}
	}

	// Bad strategy names fail loudly at Build.
	opts := smallOpts(Chip)
	opts.Chips = 2
	opts.PartitionStrategy = "diagonal"
	if _, err := Build(opts); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
}

// TestChipsFlowThroughFP ensures the FP backend ignores the die knobs.
func TestChipsFlowThroughFP(t *testing.T) {
	opts := Options{Dataset: dataset.MNIST, Backend: FP, Hidden: []int{20},
		TrainSamples: 30, TestSamples: 10, PretrainEpochs: 1, Seed: 3, Chips: 4}
	if _, err := Build(opts); err != nil {
		t.Fatalf("FP backend should ignore Chips: %v", err)
	}
}
