package core

import (
	"fmt"
	"testing"

	"emstdp/internal/trace"
)

// assertSamePredictions compares two trained models sample by sample
// over the test split — a bitwise trajectory check, not an accuracy
// coincidence.
func assertSamePredictions(t *testing.T, label string, a, b *Model) {
	t.Helper()
	if got, want := b.Evaluate().Accuracy(), a.Evaluate().Accuracy(); got != want {
		t.Fatalf("%s: accuracy diverged under tracing: %v vs %v", label, got, want)
	}
	for i, s := range a.TestFeatures() {
		if pa, pb := a.Predict(s.X), b.Predict(s.X); pa != pb {
			t.Fatalf("%s: prediction %d diverged under tracing: %d vs %d", label, i, pa, pb)
		}
	}
}

// TestTraceDoesNotPerturbTraining pins the whole-stack observational
// contract: an FP model trained and evaluated with a live tracer (pool
// workers active) is bit-identical to an untraced one.
func TestTraceDoesNotPerturbTraining(t *testing.T) {
	build := func(tr *trace.Tracer) *Model {
		opts := smallOpts(FP)
		opts.TrainSamples = 120
		opts.TestSamples = 60
		opts.Workers = 2
		opts.Trace = tr
		m, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		m.Train(1)
		return m
	}
	plain := build(nil)
	tr := trace.New()
	traced := build(tr)
	defer plain.Close()
	defer traced.Close()

	assertSamePredictions(t, "fp workers=2", plain, traced)

	events := 0
	for _, tk := range tr.Tracks() {
		events += tk.Len() + int(tk.Dropped())
	}
	if events == 0 {
		t.Fatal("live tracer recorded nothing across a training and evaluation run")
	}
}

// TestTraceDoesNotPerturbChipTraining pins the same contract on the
// chip path, on the paper's one die and on a two-die board: the mesh
// phase spans (and, with more than one die, the link counters) are live
// during every timestep.
func TestTraceDoesNotPerturbChipTraining(t *testing.T) {
	for _, chips := range []int{1, 2} {
		t.Run(fmt.Sprintf("chips=%d", chips), func(t *testing.T) {
			build := func(tr *trace.Tracer) *Model {
				opts := smallOpts(Chip)
				opts.TrainSamples = 80
				opts.TestSamples = 40
				opts.Chips = chips
				opts.Trace = tr
				m, err := Build(opts)
				if err != nil {
					t.Fatal(err)
				}
				m.Train(1)
				return m
			}
			plain := build(nil)
			tr := trace.New()
			traced := build(tr)
			defer plain.Close()
			defer traced.Close()

			label := fmt.Sprintf("chip %d-die", chips)
			assertSamePredictions(t, label, plain, traced)
			if pc, tc := plain.ChipNetwork().Counters(), traced.ChipNetwork().Counters(); pc != tc {
				t.Fatalf("%s: chip counters diverged under tracing:\nplain  %+v\ntraced %+v", label, pc, tc)
			}

			var phaseSpans int
			for _, tk := range tr.Tracks() {
				if tk.Name() == "mesh-phase" {
					phaseSpans += tk.Len() + int(tk.Dropped())
				}
			}
			if phaseSpans == 0 {
				t.Fatalf("%s: traced run recorded no mesh-phase spans", label)
			}
		})
	}
}
