// Package fixed provides the saturating integer and fixed-point arithmetic
// used by the Loihi-class chip simulator: bounded-width accumulators and
// 8-bit synaptic weight quantization with a shared weight exponent.
//
// Loihi stores synaptic weights as signed 8-bit integers scaled by a
// per-synapse-group exponent, and membrane state in wider (23/24-bit)
// signed registers that saturate rather than wrap. Reproducing those
// saturation semantics matters: EMSTDP's weight updates routinely overflow
// int8 for active neuron pairs and rely on clipping.
package fixed

import "math"

// Word widths used across the simulator. These mirror Loihi's register
// sizes: 8-bit weights, 24-bit membrane/current state, 7-bit trace counters.
const (
	WeightBits = 8
	StateBits  = 24
	TraceBits  = 7
	WeightMax  = 1<<(WeightBits-1) - 1    // 127
	WeightMin  = -(1 << (WeightBits - 1)) // -128
	StateMax   = 1<<(StateBits-1) - 1
	StateMin   = -(1 << (StateBits - 1))
	TraceMax   = 1<<TraceBits - 1 // 127, traces are unsigned saturating counters
)

// SatAdd32 returns a+b saturated to [min, max].
func SatAdd32(a, b, min, max int32) int32 {
	s := int64(a) + int64(b)
	if s > int64(max) {
		return max
	}
	if s < int64(min) {
		return min
	}
	return int32(s)
}

// SatWeight returns v saturated to the signed 8-bit weight range.
func SatWeight(v int64) int8 {
	if v > WeightMax {
		return WeightMax
	}
	if v < WeightMin {
		return WeightMin
	}
	return int8(v)
}

// SatTrace returns v saturated to the unsigned trace-counter range [0,127].
func SatTrace(v int64) uint8 {
	if v > TraceMax {
		return TraceMax
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}

// Quantizer maps real-valued weights to int8 mantissas with a shared
// power-of-two exponent, the same scheme Loihi uses for synapse groups.
// Effective weight = mantissa * 2^Exp.
type Quantizer struct {
	// Exp is the shared weight exponent. Real weight w maps to
	// round(w / 2^Exp) clipped to int8.
	Exp int
}

// NewQuantizer chooses the smallest exponent that lets maxAbs fit in the
// int8 mantissa range, i.e. the highest precision that avoids clipping the
// largest-magnitude weight.
func NewQuantizer(maxAbs float64) Quantizer {
	if maxAbs <= 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return Quantizer{Exp: -6}
	}
	exp := 0
	for maxAbs/math.Pow(2, float64(exp)) > WeightMax {
		exp++
	}
	for exp > -16 && maxAbs/math.Pow(2, float64(exp-1)) <= WeightMax {
		exp--
	}
	return Quantizer{Exp: exp}
}

// Scale returns 2^Exp, the value of one mantissa unit.
func (q Quantizer) Scale() float64 { return math.Pow(2, float64(q.Exp)) }

// Quantize maps a real weight to its int8 mantissa (round to nearest,
// saturating).
func (q Quantizer) Quantize(w float64) int8 {
	m := math.RoundToEven(w / q.Scale())
	if m > WeightMax {
		return WeightMax
	}
	if m < WeightMin {
		return WeightMin
	}
	return int8(m)
}

// Dequantize maps an int8 mantissa back to its real value.
func (q Quantizer) Dequantize(m int8) float64 { return float64(m) * q.Scale() }

// QuantizeBits quantizes w to a signed integer of the given bit width
// (2..16) with scale step, saturating. Used by the precision-ablation
// benches to model 4/6/8/16-bit synapses.
func QuantizeBits(w float64, bits int, step float64) int {
	if bits < 2 {
		bits = 2
	}
	max := 1<<(bits-1) - 1
	min := -(1 << (bits - 1))
	m := int(math.RoundToEven(w / step))
	if m > max {
		m = max
	}
	if m < min {
		m = min
	}
	return m
}

// Pow2Ceil returns the smallest power of two ≥ x (x must be positive
// and finite). Quantized-weight configurations (emstdp.Config.QuantPow2)
// use it to snap their grid step onto a power of two so that mantissa
// extraction (w / step) is an exact float64 operation.
func Pow2Ceil(x float64) float64 {
	if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		panic("fixed: Pow2Ceil requires a positive finite argument")
	}
	frac, exp := math.Frexp(x) // x = frac·2^exp, frac ∈ [0.5, 1)
	if frac == 0.5 {
		return x // already a power of two
	}
	return math.Ldexp(1, exp)
}

// ClampF returns v clamped to [lo, hi].
func ClampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
