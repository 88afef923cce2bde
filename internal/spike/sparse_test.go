package spike

import (
	"testing"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
)

// activeOf returns the ascending indices of the set entries of spikes.
func activeOf(spikes []bool) []int32 {
	var idx []int32
	for i, s := range spikes {
		if s {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// TestActiveListGatherMatchesDense pins the ActiveList bridge: gathering
// from a bitset must list exactly the dense vector's spikes, ascending,
// on word-aligned and unaligned lengths.
func TestActiveListGatherMatchesDense(t *testing.T) {
	r := rng.New(4)
	for _, n := range []int{64, 131} {
		spikes := make([]bool, n)
		b := NewBitset(n)
		l := NewActiveList(n)
		for trial := 0; trial < 50; trial++ {
			for i := range spikes {
				spikes[i] = r.Bernoulli(0.3)
			}
			b.FromBools(spikes)
			got, want := l.GatherBits(b), activeOf(spikes)
			if len(got) != len(want) || l.Len() != len(want) {
				t.Fatalf("n=%d trial %d: %d indices (Len %d), want %d", n, trial, len(got), l.Len(), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial %d: active list %v does not match dense vector %v", n, trial, got, want)
				}
			}
		}
	}
}

func TestBiasEncoderActiveMatchesSpikes(t *testing.T) {
	e := NewBiasEncoder(16, 1.0)
	b := make([]float64, 16)
	r := rng.New(7)
	r.FillUniform(b, 0, 1)
	e.SetBiases(b)
	for step := 0; step < 40; step++ {
		s := e.Step()
		act := e.Active()
		j := 0
		for i, fired := range s {
			if !fired {
				continue
			}
			if j >= len(act) || act[j] != int32(i) {
				t.Fatalf("step %d: Active %v does not match Step vector", step, act)
			}
			j++
		}
		if j != len(act) {
			t.Fatalf("step %d: active list has %d stale entries", step, len(act)-j)
		}
	}
}

func TestQuantizeToPhaseIntoMatchesAllocating(t *testing.T) {
	x := []float64{-0.5, 0, 0.031, 0.5, 0.984, 1, 2}
	dst := make([]float64, len(x))
	got := QuantizeToPhaseInto(dst, x, 64)
	want := QuantizeToPhase(x, 64)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: in-place %v, allocating %v", i, got[i], want[i])
		}
	}
}

func TestCounterObserveActiveMatchesObserve(t *testing.T) {
	r := rng.New(12)
	spikes := make([]bool, 32)
	a, b := NewCounter(32), NewCounter(32)
	for step := 0; step < 100; step++ {
		for i := range spikes {
			spikes[i] = r.Bernoulli(0.4)
		}
		a.Observe(spikes)
		b.ObserveActive(activeOf(spikes))
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("count %d: Observe %d, ObserveActive %d", i, a.Counts[i], b.Counts[i])
		}
	}
}

// TestTraceFastPathMatchesReference runs the no-decay fast path, the
// event-driven StepActive, and a reference implementation of the
// original loop side by side.
func TestTraceFastPathMatchesReference(t *testing.T) {
	r := rng.New(21)
	spikes := make([]bool, 24)
	fast := NewTrace(24, 3)
	activeT := NewTrace(24, 3)
	ref := make([]int, 24)
	for step := 0; step < 120; step++ {
		for i := range spikes {
			spikes[i] = r.Bernoulli(0.5)
		}
		fast.Step(spikes)
		activeT.StepActive(activeOf(spikes))
		for i, s := range spikes {
			if s {
				ref[i] += 3
				if ref[i] > fixed.TraceMax {
					ref[i] = fixed.TraceMax
				}
			}
		}
		for i := range ref {
			if fast.Get(i) != ref[i] || activeT.Get(i) != ref[i] {
				t.Fatalf("step %d trace %d: Step=%d StepActive=%d ref=%d",
					step, i, fast.Get(i), activeT.Get(i), ref[i])
			}
		}
	}
}

func TestTraceDecayPathStillDecays(t *testing.T) {
	tr := NewTrace(2, 10)
	tr.DecayNum, tr.DecayShift = 1, 1 // halve per step
	tr.Step([]bool{true, false})
	if tr.Get(0) != 10 {
		t.Fatalf("impulse not applied: %d", tr.Get(0))
	}
	tr.Step([]bool{false, false})
	if tr.Get(0) != 5 {
		t.Fatalf("decay shift not applied: %d, want 5", tr.Get(0))
	}
}

func TestStepActiveRejectsDecayConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StepActive with decay configured must panic")
		}
	}()
	tr := NewTrace(4, 1)
	tr.DecayShift = 2
	tr.StepActive([]int32{0})
}
