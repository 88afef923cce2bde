package spike

import (
	"math"
	"testing"
	"testing/quick"
)

// phaseCount steps one encoder neuron through a whole phase and returns
// its spike count.
func phaseCount(enc *BiasEncoder, i int) int {
	enc.Reset()
	count := 0
	for step := 0; step < enc.steps; step++ {
		if enc.Step().Get(i) {
			count++
		}
	}
	return count
}

// The §III-D property: an input neuron with bias i and threshold θ emits
// exactly floor(i·T/θ) spikes over T steps.
func TestBiasEncoderExactRate(t *testing.T) {
	const T = 64
	const theta = 1.0
	biases := []float64{0, 1.0 / T, 0.25, 0.5, 0.999, 1.0}
	enc := NewBiasEncoder(1, T, theta, biases)
	for k, bias := range biases {
		enc.SetLevels([]int{k})
		count := phaseCount(enc, 0)
		want := int(bias * T / theta * (1 + 1e-12))
		if count != want {
			t.Errorf("bias %v: %d spikes over %d steps, want %d", bias, count, T, want)
		}
		if c := enc.Counts()[0]; c != count {
			t.Errorf("bias %v: Counts %d, stepped %d", bias, c, count)
		}
	}
}

// Rate is monotone in bias.
func TestBiasEncoderMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		ba := float64(a) / 255
		bb := float64(b) / 255
		if ba > bb {
			ba, bb = bb, ba
		}
		enc := NewBiasEncoder(2, 64, 1, []float64{ba, bb})
		enc.SetLevels([]int{0, 1})
		return phaseCount(enc, 0) <= phaseCount(enc, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Spikes are evenly spread, not bursty: over any window of k steps the
// count differs from the ideal rate by at most 1.
func TestBiasEncoderUniformSpacing(t *testing.T) {
	enc := NewBiasEncoder(1, 200, 1, []float64{0.3})
	enc.SetLevels([]int{0})
	prefix := []int{0}
	for i := 0; i < 200; i++ {
		c := prefix[len(prefix)-1]
		if enc.Step().Get(0) {
			c++
		}
		prefix = append(prefix, c)
	}
	for lo := 0; lo < 150; lo += 7 {
		for _, win := range []int{10, 30, 50} {
			got := prefix[lo+win] - prefix[lo]
			ideal := 0.3 * float64(win)
			if float64(got) < ideal-1.001 || float64(got) > ideal+1.001 {
				t.Fatalf("window [%d,%d): %d spikes, ideal %.1f", lo, lo+win, got, ideal)
			}
		}
	}
}

func TestBiasEncoderReset(t *testing.T) {
	enc := NewBiasEncoder(1, 30, 1, []float64{0.9})
	enc.SetLevels([]int{0})
	for i := 0; i < 10; i++ {
		enc.Step()
	}
	enc.Reset()
	// After reset the first spike appears at the same step as from fresh.
	fresh := NewBiasEncoder(1, 30, 1, []float64{0.9})
	fresh.SetLevels([]int{0})
	for i := 0; i < 20; i++ {
		if enc.Step().Get(0) != fresh.Step().Get(0) {
			t.Fatal("reset encoder diverges from fresh encoder")
		}
	}
}

func TestSetLevelsValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLevelEncoder(2, 8).SetLevels([]int{1})
}

func TestBiasEncoderStepPastPhasePanics(t *testing.T) {
	enc := NewBiasEncoder(1, 4, 1, []float64{0.5})
	for i := 0; i < 4; i++ {
		enc.Step()
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on step T+1")
		}
	}()
	enc.Step()
}

// TestBiasEncoderRasterMatchesRecurrence is the property the input
// raster rests on: for every quantization level k, at phase lengths
// spanning one and two words per train, the level encoder's train equals
// a step-by-step run of the chip's integer schedule (fire at step t iff
// ⌊(t+1)k/T⌋ > ⌊tk/T⌋) and its count is k. At the power-of-two phase
// lengths every experiment runs, with θ ∈ {1, 256}, the float recurrence
// u += k/T·θ; fire when u ≥ θ; u −= θ of a bias encoder over the same
// levels gives the same trains, which is why building the input table in
// integers left every training trajectory as it was. Neuron i takes
// level i mod (T+1), so trains land in several raster words.
func TestBiasEncoderRasterMatchesRecurrence(t *testing.T) {
	for _, T := range []int{16, 50, 64, 100, 128} {
		n := T + 70
		levels := make([]int, n)
		for i := range levels {
			levels[i] = i % (T + 1)
		}
		enc := NewLevelEncoder(n, T)
		enc.SetLevels(levels)
		enc.Reset()
		for step := 0; step < T; step++ {
			row := enc.Step()
			for i, k := range levels {
				if fired := (step+1)*k/T > step*k/T; row.Get(i) != fired {
					t.Fatalf("T=%d neuron %d (level %d) step %d: raster %v, schedule %v",
						T, i, k, step, row.Get(i), fired)
				}
			}
		}
		for i, c := range enc.Counts() {
			if c != levels[i] {
				t.Fatalf("T=%d neuron %d: count %d, want its level %d", T, i, c, levels[i])
			}
		}
		if T&(T-1) != 0 {
			continue
		}
		for _, theta := range []float64{1, 256} {
			biases := make([]float64, T+1)
			for k := range biases {
				biases[k] = float64(k) / float64(T) * theta
			}
			float := NewBiasEncoder(n, T, theta, biases)
			float.SetLevels(levels)
			enc.Reset()
			for step := 0; step < T; step++ {
				a, b := enc.Step(), float.Step()
				for i := range levels {
					if a.Get(i) != b.Get(i) {
						t.Fatalf("T=%d θ=%v neuron %d (level %d) step %d: integer schedule %v, float recurrence %v",
							T, theta, i, levels[i], step, a.Get(i), b.Get(i))
					}
				}
			}
		}
	}
}

// TestQuantizeToPhase pins the paper's "Quantize x to T bins" step,
// PhaseLevel: in-range rates round to the nearest bin, out-of-range ones
// clamp to [0, T], and NaN is the silent level 0.
func TestQuantizeToPhase(t *testing.T) {
	const T = 64
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0, 0},
		{0.5, T / 2},
		{1, T},
		{1.5, T},
		{-0.2, 0},
		{math.NaN(), 0},
		{math.Inf(1), T},
		{math.Inf(-1), 0},
	} {
		if got := PhaseLevel(tc.v, T); got != tc.want {
			t.Errorf("PhaseLevel(%v, %d) = %d, want %d", tc.v, T, got, tc.want)
		}
	}
}

// TestQuantizeToPhaseBins requires PhaseLevel to pick the bin nearest
// v·T, within [0, T]: the spike count over T steps is then the rate
// rounded to a multiple of 1/T.
func TestQuantizeToPhaseBins(t *testing.T) {
	f := func(raw uint8, tExp uint8) bool {
		T := 8 << (tExp % 5) // 8..128
		v := float64(raw) / 255
		k := PhaseLevel(v, T)
		return k >= 0 && k <= T && math.Abs(float64(k)-v*float64(T)) <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Quantization then encoding gives exactly the bin count over a phase.
func TestQuantizeEncodeRoundTrip(t *testing.T) {
	const T = 64
	for _, v := range []float64{0.1, 0.33, 0.71, 0.99} {
		enc := NewLevelEncoder(1, T)
		enc.SetLevels([]int{PhaseLevel(v, T)})
		count := phaseCount(enc, 0)
		wantBin := int(v*T + 0.5)
		if count != wantBin {
			t.Errorf("v=%v: %d spikes, want %d", v, count, wantBin)
		}
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter(3)
	c.ObserveActive([]int32{0, 2})
	c.ObserveActive([]int32{0})
	if c.Counts[0] != 2 || c.Counts[1] != 0 || c.Counts[2] != 1 {
		t.Errorf("counts = %v", c.Counts)
	}
	c.Reset()
	if c.Counts[0] != 0 || c.Counts[1] != 0 || c.Counts[2] != 0 {
		t.Errorf("reset left counts %v", c.Counts)
	}
}
