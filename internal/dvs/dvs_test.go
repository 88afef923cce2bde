package dvs

import (
	"testing"

	"emstdp/internal/rng"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig()
	s := Generate(cfg, SwipeRight, rng.New(1))
	if len(s.Events) != cfg.T {
		t.Fatalf("T = %d", len(s.Events))
	}
	for _, mask := range s.Events {
		if len(mask) != cfg.H*cfg.W {
			t.Fatalf("mask size %d", len(mask))
		}
	}
	if s.Label != SwipeRight {
		t.Error("label wrong")
	}
}

func TestEventsAreSparse(t *testing.T) {
	cfg := DefaultConfig()
	s := Generate(cfg, CircleCW, rng.New(2))
	total := s.EventCount()
	pixels := cfg.H * cfg.W * cfg.T
	density := float64(total) / float64(pixels)
	// DVS output is sparse by nature (the paper's motivation): only the
	// moving edge fires.
	if density > 0.15 {
		t.Errorf("event density %.3f too high for an event sensor", density)
	}
	if total == 0 {
		t.Error("no events at all")
	}
}

func TestStationaryBlobEmitsFewEvents(t *testing.T) {
	// With no motion the only change events are at t=0 (blob appears);
	// afterwards just noise. Use a circle config with radius 0 span by
	// comparing against a swipe: moving gestures must emit far more.
	cfg := DefaultConfig()
	cfg.NoiseRate = 0
	move := Generate(cfg, SwipeRight, rng.New(3)).EventCount()
	if move < cfg.T {
		t.Errorf("moving gesture emitted only %d events", move)
	}
}

func TestRateMapRange(t *testing.T) {
	cfg := DefaultConfig()
	s := Generate(cfg, SwipeUp, rng.New(4))
	rm := s.RateMap()
	if len(rm) != cfg.H*cfg.W {
		t.Fatal("rate map size")
	}
	sum := 0.0
	for _, v := range rm {
		if v < 0 || v > 1 {
			t.Fatalf("rate %v out of range", v)
		}
		sum += v
	}
	if sum == 0 {
		t.Error("rate map empty")
	}
}

func TestDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := Generate(cfg, SwipeLeft, rng.New(7))
	b := Generate(cfg, SwipeLeft, rng.New(7))
	for t2 := range a.Events {
		for i := range a.Events[t2] {
			if a.Events[t2][i] != b.Events[t2][i] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestIntraClassVariation(t *testing.T) {
	cfg := DefaultConfig()
	r := rng.New(9)
	a := Generate(cfg, SwipeLeft, r)
	b := Generate(cfg, SwipeLeft, r)
	diff := 0
	for t2 := range a.Events {
		for i := range a.Events[t2] {
			if a.Events[t2][i] != b.Events[t2][i] {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("two samples of the same gesture identical (no jitter)")
	}
}

// Gesture classes must be separable from their rate maps: a nearest
// centroid probe well above chance (1/8).
func TestGesturesSeparable(t *testing.T) {
	cfg := DefaultConfig()
	ds := NewDataset(cfg, 160, 80, 11)
	n := cfg.H * cfg.W
	cents := make([][]float64, NumGestures)
	counts := make([]int, NumGestures)
	for i := range cents {
		cents[i] = make([]float64, n)
	}
	for _, s := range ds.Train {
		rm := s.RateMap()
		counts[s.Label]++
		for i, v := range rm {
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
		rm := s.RateMap()
		best, bc := 1e18, -1
		for c := range cents {
			d := 0.0
			for i, v := range rm {
				dv := v - cents[c][i]
				d += dv * dv
			}
			if d < best {
				best, bc = d, c
			}
		}
		if Gesture(bc) == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.Test))
	t.Logf("gesture nearest-centroid accuracy: %.3f", acc)
	if acc < 0.5 {
		t.Errorf("gestures not separable: %.3f", acc)
	}
}

func TestDatasetBalanced(t *testing.T) {
	ds := NewDataset(DefaultConfig(), 80, 40, 3)
	counts := make([]int, NumGestures)
	for _, s := range ds.Train {
		counts[s.Label]++
	}
	for g, c := range counts {
		if c != 10 {
			t.Errorf("gesture %v: %d samples", Gesture(g), c)
		}
	}
}

func TestGestureString(t *testing.T) {
	if SwipeRight.String() != "swipe-right" || CircleCCW.String() != "circle-ccw" {
		t.Error("gesture names wrong")
	}
	if Gesture(99).String() == "" {
		t.Error("unknown gesture should stringify")
	}
}

// TestGeneratorStreamsNewDatasetDraws pins the refactor contract: the
// corpus NewDataset materialises is exactly a generator draw sequence
// (same per-sample RNG stream, same class cycling), shuffled afterwards
// — so streaming consumers and dataset consumers see the same universe
// of samples.
func TestGeneratorStreamsNewDatasetDraws(t *testing.T) {
	cfg := Config{H: 8, W: 8, T: 16, BlobRadius: 1.5, NoiseRate: 0.01}
	const n = 24

	// Reproduce NewDataset's internal stream position: the train split
	// draws from the first child of rng.New(seed).
	seedSrc := rng.New(11)
	g := &generator{cfg: cfg, r: seedSrc.Split()}
	want := make([]*Sample, n)
	for i := range want {
		want[i] = g.Next()
	}

	ds := NewDataset(cfg, n, 4, 11)
	matched := make([]bool, n)
	for _, got := range ds.Train {
		found := false
		for j, w := range want {
			if matched[j] || got.Label != w.Label {
				continue
			}
			if sameEvents(got, w) {
				matched[j] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("dataset sample (label %v) is not one of the generator draws", got.Label)
		}
	}
}

// sameEvents reports whether two samples carry identical event streams.
func sameEvents(a, b *Sample) bool {
	if a.T != b.T || a.H != b.H || a.W != b.W {
		return false
	}
	for t := range a.Events {
		for i := range a.Events[t] {
			if a.Events[t][i] != b.Events[t][i] {
				return false
			}
		}
	}
	return true
}
