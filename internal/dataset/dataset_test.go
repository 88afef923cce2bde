package dataset

import (
	"math"
	"testing"

	"emstdp/internal/tensor"
)

func TestShapes(t *testing.T) {
	tests := []struct {
		k       Kind
		c, h, w int
	}{
		{MNIST, 1, 28, 28},
		{FashionMNIST, 1, 28, 28},
		{CIFAR10, 3, 32, 32},
		{MSTAR, 1, 32, 32},
	}
	for _, tt := range tests {
		c, h, w := Shape(tt.k)
		if c != tt.c || h != tt.h || w != tt.w {
			t.Errorf("%v: shape (%d,%d,%d), want (%d,%d,%d)", tt.k, c, h, w, tt.c, tt.h, tt.w)
		}
	}
}

func TestGenerateCountsAndRanges(t *testing.T) {
	for _, k := range []Kind{MNIST, FashionMNIST, CIFAR10, MSTAR} {
		d := Generate(k, 50, 20, 1)
		if len(d.Train) != 50 || len(d.Test) != 20 {
			t.Fatalf("%v: train %d test %d", k, len(d.Train), len(d.Test))
		}
		for _, s := range d.Train {
			if s.Label < 0 || s.Label >= 10 {
				t.Fatalf("%v: label %d", k, s.Label)
			}
			if s.Image.Len() != d.InputSize() {
				t.Fatalf("%v: image size %d, want %d", k, s.Image.Len(), d.InputSize())
			}
			for _, v := range s.Image.Data {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("%v: pixel %v out of [0,1]", k, v)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(MNIST, 20, 5, 42)
	b := Generate(MNIST, 20, 5, 42)
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label {
			t.Fatal("labels differ for same seed")
		}
		for j := range a.Train[i].Image.Data {
			if a.Train[i].Image.Data[j] != b.Train[i].Image.Data[j] {
				t.Fatal("pixels differ for same seed")
			}
		}
	}
	c := Generate(MNIST, 20, 5, 43)
	same := true
	for j := range a.Train[0].Image.Data {
		if a.Train[0].Image.Data[j] != c.Train[0].Image.Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical first image")
	}
}

func TestClassBalance(t *testing.T) {
	d := Generate(FashionMNIST, 100, 10, 7)
	counts := d.ClassCounts()
	for cls, n := range counts {
		if n != 10 {
			t.Errorf("class %d: %d samples, want 10", cls, n)
		}
	}
}

func TestIntraClassVariation(t *testing.T) {
	// Two samples of the same class must differ (augmentation applied).
	for _, k := range []Kind{MNIST, FashionMNIST, CIFAR10, MSTAR} {
		d := Generate(k, 40, 0, 3)
		var first, second *tensor.Tensor
		for _, s := range d.Train {
			if s.Label == 4 {
				if first == nil {
					first = s.Image
				} else {
					second = s.Image
					break
				}
			}
		}
		if first == nil || second == nil {
			t.Fatalf("%v: not enough class-4 samples", k)
		}
		diff := 0.0
		for i := range first.Data {
			diff += math.Abs(first.Data[i] - second.Data[i])
		}
		if diff < 1 {
			t.Errorf("%v: two class-4 samples nearly identical (L1 diff %v)", k, diff)
		}
	}
}

// nearestCentroid trains per-class mean images and classifies the test set;
// a crude but fast probe of linear separability.
func nearestCentroid(d *Dataset) float64 {
	n := d.InputSize()
	centroids := make([][]float64, d.NumClasses)
	counts := make([]int, d.NumClasses)
	for i := range centroids {
		centroids[i] = make([]float64, n)
	}
	for _, s := range d.Train {
		counts[s.Label]++
		for i, v := range s.Image.Data {
			centroids[s.Label][i] += v
		}
	}
	for c := range centroids {
		if counts[c] > 0 {
			for i := range centroids[c] {
				centroids[c][i] /= float64(counts[c])
			}
		}
	}
	correct := 0
	for _, s := range d.Test {
		best, bc := math.Inf(1), -1
		for c := range centroids {
			dist := 0.0
			for i, v := range s.Image.Data {
				dv := v - centroids[c][i]
				dist += dv * dv
			}
			if dist < best {
				best, bc = dist, c
			}
		}
		if bc == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Test))
}

// The generators must preserve the paper's difficulty ordering:
// MNIST easiest, then Fashion-MNIST, then MSTAR, CIFAR-10 hardest.
func TestDifficultyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("difficulty calibration is slow")
	}
	accs := map[Kind]float64{}
	for _, k := range []Kind{MNIST, FashionMNIST, CIFAR10, MSTAR} {
		d := Generate(k, 400, 200, 11)
		accs[k] = nearestCentroid(d)
		t.Logf("%v nearest-centroid accuracy: %.3f", k, accs[k])
	}
	if accs[MNIST] < 0.75 {
		t.Errorf("MNIST-like too hard: %.3f", accs[MNIST])
	}
	if accs[MNIST] <= accs[FashionMNIST] {
		t.Errorf("MNIST (%.3f) should be easier than Fashion (%.3f)", accs[MNIST], accs[FashionMNIST])
	}
	if accs[FashionMNIST] <= accs[CIFAR10] {
		t.Errorf("Fashion (%.3f) should be easier than CIFAR (%.3f)", accs[FashionMNIST], accs[CIFAR10])
	}
	if accs[MSTAR] <= accs[CIFAR10] {
		t.Errorf("MSTAR (%.3f) should be easier than CIFAR (%.3f)", accs[MSTAR], accs[CIFAR10])
	}
	if accs[CIFAR10] < 0.2 {
		t.Errorf("CIFAR-like unlearnably hard: %.3f (chance is 0.1)", accs[CIFAR10])
	}
}

func TestKindString(t *testing.T) {
	if MNIST.String() != "MNIST" || MSTAR.String() != "MSTAR (10 class)" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"", MNIST},
		{"mnist", MNIST},
		{"MNIST", MNIST},
		{"fashion", FashionMNIST},
		{"Fashion-MNIST", FashionMNIST},
		{"fashionmnist", FashionMNIST},
		{"cifar10", CIFAR10},
		{"cifar-10", CIFAR10},
		{"mstar", MSTAR},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("imagenet"); err == nil {
		t.Error(`ParseKind("imagenet"): expected an error`)
	}
}
