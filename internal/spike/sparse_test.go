package spike

import (
	"testing"

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

// TestCounterObserveActiveMatchesObserve checks ObserveActive against a
// dense observe that counts every true entry of the spike vector.
func TestCounterObserveActiveMatchesObserve(t *testing.T) {
	r := rng.New(12)
	spikes := make([]bool, 32)
	dense := make([]int, 32)
	c := NewCounter(32)
	for step := 0; step < 100; step++ {
		for i := range spikes {
			spikes[i] = r.Bernoulli(0.4)
			if spikes[i] {
				dense[i]++
			}
		}
		c.ObserveActive(activeOf(spikes))
	}
	for i := range dense {
		if dense[i] != c.Counts[i] {
			t.Fatalf("count %d: dense observe %d, ObserveActive %d", i, dense[i], c.Counts[i])
		}
	}
}
