package snn

import (
	"fmt"
	"testing"

	"emstdp/internal/rng"
	"emstdp/internal/spike"
)

// randomSpikes returns a step of in presynaptic neurons firing with the
// given density.
func randomSpikes(r *rng.Source, in int, density float64) *spike.Bitset {
	pre := make([]bool, in)
	for i := range pre {
		pre[i] = r.Float64() < density
	}
	b := spike.NewBitset(in)
	b.FromBools(pre)
	return b
}

// TestPackedKernelBitIdenticalToDense drives identical layers — the
// dense reference, which expands the bitset to a bool vector, and the
// packed kernel — with the same spike trains across a density sweep,
// and demands byte-identical spikes, membranes, active lists and output
// bitsets at every step. Density 0 covers the empty step. This pins the
// register-blocked multi-column scatter to the reference accumulation
// order (bias first, then ascending presynaptic index).
func TestPackedKernelBitIdenticalToDense(t *testing.T) {
	const in, out = 97, 53
	for _, density := range []float64{0, 0.02, 0.1, 0.3, 0.6, 0.95, 1} {
		dense := NewIFLayer(rng.New(11), in, out, 0.4, 1.0)
		packed := dense.Clone()
		dense.Kernel = KernelDense
		r := rng.New(uint64(1000 * (1 + density)))
		for step := 0; step < 200; step++ {
			bits := randomSpikes(r, in, density)
			sd := dense.Step(bits)
			sp := packed.Step(bits)
			for o := 0; o < out; o++ {
				if sd.Get(o) != sp.Get(o) {
					t.Fatalf("density %.2f step %d: spike[%d] dense=%v packed=%v",
						density, step, o, sd.Get(o), sp.Get(o))
				}
				if dense.Potential(o) != packed.Potential(o) {
					t.Fatalf("density %.2f step %d: u[%d] diverges across kernels", density, step, o)
				}
			}
			da := dense.Active()
			la := packed.Active()
			if len(da) != len(la) {
				t.Fatalf("density %.2f step %d: active lengths %d vs %d", density, step, len(da), len(la))
			}
			for i := range da {
				if da[i] != la[i] {
					t.Fatalf("density %.2f step %d: active[%d] %d vs %d", density, step, i, da[i], la[i])
				}
			}
			if packed.Bits().Count() != len(da) {
				t.Fatalf("density %.2f step %d: bitset popcount %d, active %d",
					density, step, packed.Bits().Count(), len(da))
			}
		}
	}
}

// TestStepMatchesStepSparseAuto chains two layers the way the network
// does — the second fed the first's published output bitset — and
// checks it against an identical chain whose second layer gets a bitset
// rebuilt from the first's spikes expanded to a bool vector. Spikes and
// membranes must agree at every step, so a producer's Bits() is a valid
// input for its consumer.
func TestStepMatchesStepSparseAuto(t *testing.T) {
	a1 := NewIFLayer(rng.New(5), 40, 33, 0.5, 1.0)
	a2 := NewIFLayer(rng.New(6), 33, 17, 0.5, 1.0)
	b1, b2 := a1.Clone(), a2.Clone()
	r := rng.New(99)
	rebuilt := spike.NewBitset(33)
	dense := make([]bool, 33)
	for step := 0; step < 100; step++ {
		pre := randomSpikes(r, 40, 0.25)
		a1.Step(pre)
		sa := a2.Step(a1.Bits())
		b1.Step(pre).ToBools(dense)
		rebuilt.FromBools(dense)
		sb := b2.Step(rebuilt)
		for o := 0; o < a2.Out; o++ {
			if sa.Get(o) != sb.Get(o) || a2.Potential(o) != b2.Potential(o) {
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
	pre := spike.NewBitset(4)
	pre.Set(0)
	l.Step(pre) // builds the transpose from the zero weights
	if got := l.Potential(0); got != 0 {
		t.Fatalf("potential %v before weight write, want 0", got)
	}
	l.W[0*4+0] = 0.75 // post 0 <- pre 0
	l.MarkWeightsDirty()
	l.Step(pre)
	if got := l.Potential(0); got != 0.75 {
		t.Fatalf("potential %v after marked weight write, want 0.75", got)
	}
}

// TestSetWeightKeepsTransposeCurrent writes scattered weights through
// SetWeight while the transposed view is current, and while it is
// dirty: either way the view must equal a full rebuild from W, and a
// packed layer must keep stepping bit-identically to the dense
// reference, which reads W directly.
func TestSetWeightKeepsTransposeCurrent(t *testing.T) {
	const in, out = 70, 45
	packed := NewIFLayer(rng.New(21), in, out, 0.5, 1.0)
	dense := packed.Clone()
	dense.Kernel = KernelDense
	r := rng.New(22)
	for round := 0; round < 30; round++ {
		pre := randomSpikes(r, in, 0.3)
		sp, sd := packed.Step(pre), dense.Step(pre)
		for o := 0; o < out; o++ {
			if sp.Get(o) != sd.Get(o) || packed.Potential(o) != dense.Potential(o) {
				t.Fatalf("round %d neuron %d: packed and dense diverge after SetWeight", round, o)
			}
		}
		if round == 20 {
			packed.MarkWeightsDirty() // the next writes land on a dirty view
		}
		for k := 0; k < 25; k++ {
			o, i, w := r.Intn(out), r.Intn(in), r.Float64()-0.5
			packed.SetWeight(o, i, w)
			dense.SetWeight(o, i, w)
		}
	}
	packed.ensureTransposed()
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if w, v := packed.W[o*in+i], packed.wt[i*out+o]; w != v {
				t.Fatalf("weight %d->%d: W %v, transposed view %v", i, o, w, v)
			}
		}
	}
}

// TestStepAllocatesNothing pins the zero-allocation contract of Step on
// both kernels.
func TestStepAllocatesNothing(t *testing.T) {
	const in, out = 200, 100
	l := NewIFLayer(rng.New(1), in, out, 0.2, 1.0)
	bits := randomSpikes(rng.New(2), in, 0.25)
	l.Step(bits) // warm the transpose
	for _, k := range []Kernel{KernelPacked, KernelDense} {
		l.Kernel = k
		if n := testing.AllocsPerRun(50, func() {
			l.Step(bits)
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
	bits := randomSpikes(rng.New(2), in, float64(densityPct)/100)
	l.Step(bits) // warm the transpose outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(bits)
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

// TestStepDriveMatchesStepUnderInject records one pass's drives, then
// runs a layer through Step and an identical one through StepDrive on
// the recorded drives, injecting the same charges into both between
// steps (some deep enough to hit the UMin floor). Membranes, spikes,
// bitsets and active lists must agree at every step: the drive never
// reads the membrane, so a replay stays exact under phase-2 injections.
func TestStepDriveMatchesStepUnderInject(t *testing.T) {
	const in, out, steps = 70, 45, 120
	rec := NewIFLayer(rng.New(17), in, out, 0.5, 1.0)
	rng.New(18).FillUniform(rec.Bias, -0.1, 0.3)
	stepped, replayed := rec.Clone(), rec.Clone()
	r := rng.New(19)
	pres := make([]*spike.Bitset, steps)
	drives := make([][]float64, steps)
	for s := range pres {
		pres[s] = randomSpikes(r, in, 0.2)
		rec.Step(pres[s])
		drives[s] = append([]float64(nil), rec.Drive()...)
	}
	for s := 0; s < steps; s++ {
		for k := 0; k < 6; k++ {
			v := 3 * (r.Float64() - 0.6)
			o := r.Intn(out)
			stepped.Inject(o, v)
			replayed.Inject(o, v)
		}
		ss := stepped.Step(pres[s])
		sr := replayed.StepDrive(drives[s])
		for o := 0; o < out; o++ {
			if ss.Get(o) != sr.Get(o) || stepped.Potential(o) != replayed.Potential(o) {
				t.Fatalf("step %d neuron %d: Step (spike %v, u %v), StepDrive (spike %v, u %v)",
					s, o, ss.Get(o), stepped.Potential(o), sr.Get(o), replayed.Potential(o))
			}
		}
		ws, wr := stepped.Bits().Words(), replayed.Bits().Words()
		for i := range ws {
			if ws[i] != wr[i] {
				t.Fatalf("step %d: bitset word %d %x vs %x", s, i, ws[i], wr[i])
			}
		}
		as, ar := stepped.Active(), replayed.Active()
		if len(as) != len(ar) {
			t.Fatalf("step %d: active lengths %d vs %d", s, len(as), len(ar))
		}
		for i := range as {
			if as[i] != ar[i] {
				t.Fatalf("step %d: active[%d] %d vs %d", s, i, as[i], ar[i])
			}
		}
	}
}
