package snn

import (
	"fmt"
	"testing"

	"emstdp/internal/rng"
	"emstdp/internal/spike"
)

// randomSpikes fills pre with the given firing density.
func randomSpikes(r *rng.Source, pre []bool, density float64) {
	for i := range pre {
		pre[i] = r.Float64() < density
	}
}

// TestPackedKernelBitIdenticalToDense drives identical layers — the
// dense reference, the packed kernel on a caller-provided bitset, and
// the packed kernel building its bitset from the dense vector in
// scratch — with the same spike trains across a density sweep, and
// demands byte-identical spikes, membranes, active lists and output
// bitsets at every step. Density 0 covers the empty step. This pins the
// register-blocked multi-column scatter to the reference accumulation
// order (bias first, then ascending presynaptic index).
func TestPackedKernelBitIdenticalToDense(t *testing.T) {
	const in, out = 97, 53
	for _, density := range []float64{0, 0.02, 0.1, 0.3, 0.6, 0.95, 1} {
		dense := NewIFLayer(rng.New(11), in, out, 0.4, 1.0)
		packed := dense.Clone()
		scratch := dense.Clone()
		dense.Kernel = KernelDense
		r := rng.New(uint64(1000 * (1 + density)))
		pre := make([]bool, in)
		bits := spike.NewBitset(in)
		for step := 0; step < 200; step++ {
			randomSpikes(r, pre, density)
			bits.FromBools(pre)
			sd := dense.Step(pre, nil)
			sp := packed.Step(pre, bits)
			ss := scratch.Step(pre, nil)
			for o := 0; o < out; o++ {
				if sd[o] != sp[o] || sd[o] != ss[o] {
					t.Fatalf("density %.2f step %d: spike[%d] dense=%v packed=%v scratch=%v",
						density, step, o, sd[o], sp[o], ss[o])
				}
				if dense.Potential(o) != packed.Potential(o) || dense.Potential(o) != scratch.Potential(o) {
					t.Fatalf("density %.2f step %d: u[%d] diverges across kernels", density, step, o)
				}
			}
			da := dense.Active()
			for _, l := range []*IFLayer{packed, scratch} {
				la := l.Active()
				if len(da) != len(la) {
					t.Fatalf("density %.2f step %d: active lengths %d vs %d", density, step, len(da), len(la))
				}
				for i := range da {
					if da[i] != la[i] {
						t.Fatalf("density %.2f step %d: active[%d] %d vs %d", density, step, i, da[i], la[i])
					}
				}
				if l.Bits().Count() != len(da) {
					t.Fatalf("density %.2f step %d: bitset popcount %d, active %d",
						density, step, l.Bits().Count(), len(da))
				}
			}
		}
	}
}

// TestStepMatchesStepSparseAuto chains two layers the way the network
// does — the second fed the first's published output bitset — and
// checks it against an identical chain whose second layer rebuilds the
// bitset from the bool vector (nil preBits). Spikes and membranes must
// agree at every step, so a producer's Bits() is a valid preBits for
// its consumer.
func TestStepMatchesStepSparseAuto(t *testing.T) {
	a1 := NewIFLayer(rng.New(5), 40, 33, 0.5, 1.0)
	a2 := NewIFLayer(rng.New(6), 33, 17, 0.5, 1.0)
	b1, b2 := a1.Clone(), a2.Clone()
	r := rng.New(99)
	pre := make([]bool, 40)
	for step := 0; step < 100; step++ {
		randomSpikes(r, pre, 0.25)
		sa := a2.Step(a1.Step(pre, nil), a1.Bits())
		sb := b2.Step(b1.Step(pre, nil), nil)
		for o := range sa {
			if sa[o] != sb[o] || a2.Potential(o) != b2.Potential(o) {
				t.Fatalf("step %d neuron %d: upstream bitset and rebuilt bitset diverge", step, o)
			}
		}
	}
}

// TestPackedKernelSeesInPlaceWeightWrites verifies the invalidation
// contract: an in-place W write followed by MarkWeightsDirty must be
// visible through the transposed view on the next packed step.
func TestPackedKernelSeesInPlaceWeightWrites(t *testing.T) {
	l := NewIFLayer(rng.New(3), 4, 2, 0, 1.0)
	pre := []bool{true, false, false, false}
	l.Step(pre, nil) // builds the transpose from the zero weights
	if got := l.Potential(0); got != 0 {
		t.Fatalf("potential %v before weight write, want 0", got)
	}
	l.W[0*4+0] = 0.75 // post 0 <- pre 0
	l.MarkWeightsDirty()
	l.Step(pre, nil)
	if got := l.Potential(0); got != 0.75 {
		t.Fatalf("potential %v after marked weight write, want 0.75", got)
	}
}

// TestStepAllocatesNothing pins the zero-allocation contract of Step on
// both kernels, with a caller-provided bitset and with the nil-bitset
// path that fills the layer's scratch.
func TestStepAllocatesNothing(t *testing.T) {
	const in, out = 200, 100
	l := NewIFLayer(rng.New(1), in, out, 0.2, 1.0)
	r := rng.New(2)
	pre := make([]bool, in)
	randomSpikes(r, pre, 0.25)
	bits := spike.NewBitset(in)
	bits.FromBools(pre)
	l.Step(pre, bits) // warm the transpose
	for _, k := range []Kernel{KernelPacked, KernelDense} {
		l.Kernel = k
		if n := testing.AllocsPerRun(50, func() {
			l.Step(pre, bits)
			l.Step(pre, nil)
		}); n != 0 {
			t.Fatalf("kernel %d: Step allocates %v per run", k, n)
		}
	}
}

// benchLayerStep times one kernel at one density on the paper's 200→100
// layer shape, with the caller-provided bitset the packed kernel
// consumes in production.
func benchLayerStep(b *testing.B, k Kernel, densityPct int) {
	const in, out = 200, 100
	l := NewIFLayer(rng.New(1), in, out, 0.2, 1.0)
	l.Kernel = k
	r := rng.New(2)
	pre := make([]bool, in)
	randomSpikes(r, pre, float64(densityPct)/100)
	bits := spike.NewBitset(in)
	bits.FromBools(pre)
	l.Step(pre, bits) // warm the transpose outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(pre, bits)
	}
}

func BenchmarkIFLayerStep_Dense(b *testing.B) {
	for _, d := range []int{5, 25, 75} {
		b.Run(fmt.Sprintf("density=%d%%", d), func(b *testing.B) {
			benchLayerStep(b, KernelDense, d)
		})
	}
}

func BenchmarkIFLayerStep_Packed(b *testing.B) {
	for _, d := range []int{5, 25, 75, 100} {
		b.Run(fmt.Sprintf("density=%d%%", d), func(b *testing.B) {
			benchLayerStep(b, KernelPacked, d)
		})
	}
}
