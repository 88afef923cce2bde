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

// TestBiasEncoderCountsMatchSteps checks the encoder's two published
// views of a programmed sample against each other: each neuron's count
// equals the number of step bitsets in which its bit is set, and no
// step sets a bit past Len.
func TestBiasEncoderCountsMatchSteps(t *testing.T) {
	const n, T = 70, 40
	e := NewLevelEncoder(n, T)
	r := rng.New(7)
	levels := make([]int, n)
	for i := range levels {
		levels[i] = r.Intn(T + 1)
	}
	e.SetLevels(levels)
	seen := make([]int, n)
	for step := 0; step < T; step++ {
		row := e.Step()
		for _, i := range row.AppendIndices(nil) {
			if int(i) >= n {
				t.Fatalf("step %d: bit %d set past Len %d", step, i, n)
			}
			seen[i]++
		}
	}
	for i, c := range e.Counts() {
		if c != seen[i] {
			t.Fatalf("neuron %d (level %d): Counts %d, steps fired %d", i, levels[i], c, seen[i])
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
