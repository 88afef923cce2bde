package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSatAdd32(t *testing.T) {
	tests := []struct {
		a, b, min, max, want int32
	}{
		{1, 2, -10, 10, 3},
		{9, 5, -10, 10, 10},
		{-9, -5, -10, 10, -10},
		{math.MaxInt32, math.MaxInt32, math.MinInt32, math.MaxInt32, math.MaxInt32},
		{math.MinInt32, math.MinInt32, math.MinInt32, math.MaxInt32, math.MinInt32},
		{0, 0, -1, 1, 0},
	}
	for _, tt := range tests {
		if got := SatAdd32(tt.a, tt.b, tt.min, tt.max); got != tt.want {
			t.Errorf("SatAdd32(%d,%d,%d,%d) = %d, want %d", tt.a, tt.b, tt.min, tt.max, got, tt.want)
		}
	}
}

func TestSatWeight(t *testing.T) {
	if got := SatWeight(200); got != 127 {
		t.Errorf("SatWeight(200) = %d, want 127", got)
	}
	if got := SatWeight(-200); got != -128 {
		t.Errorf("SatWeight(-200) = %d, want -128", got)
	}
	if got := SatWeight(-5); got != -5 {
		t.Errorf("SatWeight(-5) = %d", got)
	}
}

func TestSatTrace(t *testing.T) {
	if got := SatTrace(300); got != 127 {
		t.Errorf("SatTrace(300) = %d, want 127", got)
	}
	if got := SatTrace(-1); got != 0 {
		t.Errorf("SatTrace(-1) = %d, want 0", got)
	}
	if got := SatTrace(64); got != 64 {
		t.Errorf("SatTrace(64) = %d", got)
	}
}

func TestNewQuantizerFitsMax(t *testing.T) {
	for _, maxAbs := range []float64{0.001, 0.5, 1, 3.7, 100, 12000} {
		q := NewQuantizer(maxAbs)
		m := q.Quantize(maxAbs)
		if m != WeightMax && math.Abs(q.Dequantize(m)-maxAbs) > q.Scale() {
			t.Errorf("maxAbs=%v exp=%d: quantized %d dequantizes to %v", maxAbs, q.Exp, m, q.Dequantize(m))
		}
		// One exponent lower must clip.
		lower := Quantizer{Exp: q.Exp - 1}
		if maxAbs/lower.Scale() <= WeightMax {
			t.Errorf("maxAbs=%v: exponent %d not minimal", maxAbs, q.Exp)
		}
	}
}

func TestNewQuantizerDegenerate(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		q := NewQuantizer(bad)
		if q.Scale() <= 0 || math.IsNaN(q.Scale()) {
			t.Errorf("NewQuantizer(%v) gave unusable scale %v", bad, q.Scale())
		}
	}
}

// Quantization round-trip error is bounded by half a scale step for
// in-range weights.
func TestQuantizeRoundTripError(t *testing.T) {
	f := func(w float64) bool {
		if math.IsNaN(w) || math.Abs(w) > 1e6 {
			return true
		}
		q := NewQuantizer(1e6)
		back := q.Dequantize(q.Quantize(w))
		return math.Abs(back-w) <= q.Scale()/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeBits(t *testing.T) {
	// 4-bit: range [-8, 7]
	if got := QuantizeBits(100, 4, 1); got != 7 {
		t.Errorf("QuantizeBits(100,4,1) = %d, want 7", got)
	}
	if got := QuantizeBits(-100, 4, 1); got != -8 {
		t.Errorf("QuantizeBits(-100,4,1) = %d, want -8", got)
	}
	if got := QuantizeBits(0.5, 4, 0.25); got != 2 {
		t.Errorf("QuantizeBits(0.5,4,0.25) = %d, want 2", got)
	}
	if got := QuantizeBits(3, 1, 1); got != 1 {
		t.Errorf("QuantizeBits with bits<2 should clamp to 2 bits, got %d", got)
	}
}

func TestClamp(t *testing.T) {
	if ClampF(5, 0, 3) != 3 || ClampF(-1, 0, 3) != 0 || ClampF(2, 0, 3) != 2 {
		t.Error("ClampF wrong")
	}
}

func TestPow2Ceil(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1, 1}, {0.5, 0.5}, {0.25, 0.25},
		{0.3, 0.5}, {0.51, 1}, {1.0001, 2}, {3, 4}, {4, 4}, {5, 8},
		{1e-9, math.Ldexp(1, -29)},
	}
	for _, c := range cases {
		if got := Pow2Ceil(c.in); got != c.want {
			t.Errorf("Pow2Ceil(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pow2Ceil(%v) did not panic", bad)
				}
			}()
			Pow2Ceil(bad)
		}()
	}
}
