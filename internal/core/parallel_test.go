package core

import (
	"testing"

	"emstdp/internal/dataset"
)

// buildParallel constructs a small model with the given engine options.
func buildParallel(t *testing.T, backend Backend, workers int) *Model {
	t.Helper()
	m, err := Build(Options{
		Dataset:        dataset.MNIST,
		Backend:        backend,
		TrainSamples:   80,
		TestSamples:    60,
		PretrainEpochs: 1,
		Workers:        workers,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelParallelismIsBitIdentical is the end-to-end determinism
// check: the same model options with 1 vs 4 workers must produce
// identical weights and an identical confusion matrix.
func TestModelParallelismIsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, backend := range []Backend{FP, Chip} {
		m1 := buildParallel(t, backend, 1)
		m4 := buildParallel(t, backend, 4)
		m1.Train(1)
		m4.Train(1)

		cm1, cm4 := m1.Evaluate(), m4.Evaluate()
		for i := range cm1.Cells {
			if cm1.Cells[i] != cm4.Cells[i] {
				t.Fatalf("%v: confusion cell %d: %d (1 worker) vs %d (4 workers)",
					backend, i, cm1.Cells[i], cm4.Cells[i])
			}
		}

		switch backend {
		case FP:
			for li := 0; li < m1.FPNetwork().NumLayers(); li++ {
				w1 := m1.FPNetwork().Layer(li).W
				w4 := m4.FPNetwork().Layer(li).W
				for i := range w1 {
					if w1[i] != w4[i] {
						t.Fatalf("FP layer %d weight %d diverged", li, i)
					}
				}
			}
		case Chip:
			for li := 0; li < m1.ChipNetwork().NumPlasticLayers(); li++ {
				w1 := m1.ChipNetwork().Plastic(li).W
				w4 := m4.ChipNetwork().Plastic(li).W
				for i := range w1 {
					if w1[i] != w4[i] {
						t.Fatalf("chip layer %d mantissa %d diverged", li, i)
					}
				}
			}
		}
	}
}

// TestParallelEvaluateMatchesSequentialAfterOnlineTraining checks the
// Workers knob alone: evaluation through replicas must reproduce the
// sequential confusion matrix exactly.
func TestParallelEvaluateMatchesSequentialAfterOnlineTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	seq := buildParallel(t, FP, 1)
	par := buildParallel(t, FP, 4)
	seq.Train(1)
	par.Train(1)
	cmS, cmP := seq.Evaluate(), par.Evaluate()
	if cmS.Accuracy() != cmP.Accuracy() {
		t.Fatalf("accuracy diverged: %v vs %v", cmS.Accuracy(), cmP.Accuracy())
	}
	for i := range cmS.Cells {
		if cmS.Cells[i] != cmP.Cells[i] {
			t.Fatalf("confusion cell %d: %d vs %d", i, cmS.Cells[i], cmP.Cells[i])
		}
	}
}
