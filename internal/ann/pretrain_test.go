package ann

import (
	"slices"
	"testing"

	"emstdp/internal/dataset"
)

// Offline pretraining on the synthetic digits must comfortably beat chance,
// or the frozen features feeding the on-chip dense layers are useless.
func TestPretrainLearnsDigits(t *testing.T) {
	if testing.Short() {
		t.Skip("pretraining is slow")
	}
	ds := dataset.Generate(dataset.MNIST, 300, 0, 21)
	cs, acc, feats := Pretrain(ds, PretrainConfig{Epochs: 3, LR: 0.01, Seed: 5})
	if acc < 0.7 {
		t.Errorf("pretrain train accuracy %.3f, want >= 0.7", acc)
	}
	if cs.OutSize() != 200 {
		t.Errorf("OutSize = %d", cs.OutSize())
	}
	// The returned features are the frozen stack's, image for image.
	if len(feats) != len(ds.Train) {
		t.Fatalf("%d features for %d training images", len(feats), len(ds.Train))
	}
	for i, s := range ds.Train {
		if !slices.Equal(feats[i].Data, cs.Extract(s.Image).Data) {
			t.Fatalf("training image %d: returned features differ from Extract", i)
		}
	}
}

// Features from the pretrained stack must separate classes better than raw
// chance for a nearest-centroid probe (i.e. they carry label information).
func TestPretrainedFeaturesDiscriminative(t *testing.T) {
	if testing.Short() {
		t.Skip("pretraining is slow")
	}
	ds := dataset.Generate(dataset.MNIST, 300, 100, 22)
	cs, _, _ := Pretrain(ds, PretrainConfig{Epochs: 2, LR: 0.01, Seed: 6})

	n := cs.OutSize()
	cents := make([][]float64, 10)
	counts := make([]int, 10)
	for i := range cents {
		cents[i] = make([]float64, n)
	}
	for _, s := range ds.Train {
		f := cs.Extract(s.Image)
		counts[s.Label]++
		for i, v := range f.Data {
			cents[s.Label][i] += v
		}
	}
	for c := range cents {
		for i := range cents[c] {
			cents[c][i] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range ds.Test {
		f := cs.Extract(s.Image)
		best, bc := 1e18, -1
		for c := range cents {
			d := 0.0
			for i, v := range f.Data {
				dv := v - cents[c][i]
				d += dv * dv
			}
			if d < best {
				best, bc = d, c
			}
		}
		if bc == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.Test))
	t.Logf("feature nearest-centroid accuracy: %.3f", acc)
	if acc < 0.5 {
		t.Errorf("pretrained features too weak: %.3f", acc)
	}
}

func TestPretrainEmptyDataset(t *testing.T) {
	ds := dataset.Generate(dataset.MNIST, 0, 0, 1)
	cs, acc, _ := Pretrain(ds, PretrainConfig{Epochs: 1, LR: 0.01, Seed: 1})
	if cs == nil {
		t.Fatal("nil stack")
	}
	if acc != 0 {
		t.Errorf("accuracy on empty dataset = %v", acc)
	}
}
