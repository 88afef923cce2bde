package spike

import (
	"testing"

	"emstdp/internal/rng"
)

// TestBitsetRoundTrip exercises the three representations on awkward
// lengths (word-aligned, off-by-one, sub-word) with deterministic random
// patterns.
func TestBitsetRoundTrip(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{0, 1, 7, 63, 64, 65, 128, 200, 785} {
		b := NewBitset(n)
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
		spikes := make([]bool, n)
		back := make([]bool, n)
		for trial := 0; trial < 20; trial++ {
			count := 0
			for i := range spikes {
				spikes[i] = r.Float64() < 0.3
				if spikes[i] {
					count++
				}
			}
			b.FromBools(spikes)
			if b.Count() != count {
				t.Fatalf("n=%d: Count=%d want %d", n, b.Count(), count)
			}
			b.ToBools(back)
			for i := range spikes {
				if back[i] != spikes[i] || b.Get(i) != spikes[i] {
					t.Fatalf("n=%d bit %d: round trip lost a spike", n, i)
				}
			}
			// prefix[i] counts the spikes below neuron i: the reference
			// for CountRange over word-straddling and sub-word ranges.
			prefix := make([]int, n+1)
			for i, sp := range spikes {
				prefix[i+1] = prefix[i]
				if sp {
					prefix[i+1]++
				}
			}
			for lo := 0; lo <= n; lo += 7 {
				for hi := lo; hi <= n; hi += 11 {
					if got, want := b.CountRange(lo, hi), prefix[hi]-prefix[lo]; got != want {
						t.Fatalf("n=%d: CountRange(%d,%d)=%d want %d", n, lo, hi, got, want)
					}
				}
				if got, want := b.CountRange(lo, n), prefix[n]-prefix[lo]; got != want {
					t.Fatalf("n=%d: CountRange(%d,%d)=%d want %d", n, lo, n, got, want)
				}
			}
			idx := b.AppendIndices(nil)
			if len(idx) != count {
				t.Fatalf("n=%d: %d indices want %d", n, len(idx), count)
			}
			prev := int32(-1)
			for _, i := range idx {
				if i <= prev || !spikes[i] {
					t.Fatalf("n=%d: index list not ascending-exact at %d", n, i)
				}
				prev = i
			}
			b2 := NewBitset(n)
			for _, i := range idx {
				b2.Set(int(i))
			}
			for wi, w := range b.Words() {
				if b2.Words()[wi] != w {
					t.Fatalf("n=%d: rebuilt-from-indices word %d mismatch", n, wi)
				}
			}
		}
	}
}

// TestBitsetSetZeroGet covers the mutation API.
func TestBitsetSetZeroGet(t *testing.T) {
	b := NewBitset(70)
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(69)
	if b.Count() != 4 || !b.Get(63) || !b.Get(64) || b.Get(1) {
		t.Fatalf("Set/Get wrong: count=%d", b.Count())
	}
	got := b.AppendIndices(nil)
	want := []int32{0, 63, 64, 69}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("AppendIndices = %v, want %v", got, want)
		}
	}
	b.Zero()
	if b.Count() != 0 {
		t.Fatalf("Zero left %d bits", b.Count())
	}
}

// FuzzBitset feeds arbitrary byte strings as spike patterns and checks
// the full representation triangle: []bool → Bitset → indices → Bitset
// → []bool is lossless, popcount matches, and trailing-zeros iteration
// visits exactly the indices the dense scan produces, in the same order.
func FuzzBitset(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0x00, 0xff})
	seed := make([]byte, 200)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		spikes := make([]bool, n)
		var want []int32
		for i, v := range data {
			spikes[i] = v&1 != 0
			if spikes[i] {
				want = append(want, int32(i))
			}
		}
		b := NewBitset(n)
		b.FromBools(spikes)
		if b.Count() != len(want) {
			t.Fatalf("Count=%d want %d", b.Count(), len(want))
		}
		got := b.AppendIndices(nil)
		if len(got) != len(want) {
			t.Fatalf("%d indices, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iteration order diverges at %d: %d vs %d", i, got[i], want[i])
			}
		}
		rt := NewBitset(n)
		for _, i := range got {
			rt.Set(int(i))
		}
		back := make([]bool, n)
		rt.ToBools(back)
		for i := range spikes {
			if back[i] != spikes[i] {
				t.Fatalf("round trip lost bit %d", i)
			}
		}
		al := NewActiveList(n)
		li := al.GatherBits(b)
		for i := range want {
			if li[i] != want[i] {
				t.Fatalf("ActiveList bridge diverges at %d", i)
			}
		}
	})
}

// TestGatherBitsMatchesGather reuses one ActiveList across trials of
// varying density on an unaligned 131-neuron length and checks that
// GatherBits lists exactly what Bitset.AppendIndices and the dense scan
// list, so a gather shorter than the previous one leaves no stale tail.
func TestGatherBitsMatchesGather(t *testing.T) {
	r := rng.New(7)
	spikes := make([]bool, 131)
	b := NewBitset(len(spikes))
	l := NewActiveList(len(spikes))
	for trial := 0; trial < 50; trial++ {
		density := []float64{0.9, 0.2, 0, 0.5}[trial%4]
		for i := range spikes {
			spikes[i] = r.Float64() < density
		}
		b.FromBools(spikes)
		got := l.GatherBits(b)
		fromBits, dense := b.AppendIndices(nil), activeOf(spikes)
		if len(got) != len(fromBits) || len(got) != len(dense) {
			t.Fatalf("trial %d: lengths %d vs %d vs %d", trial, len(got), len(fromBits), len(dense))
		}
		for i := range got {
			if got[i] != fromBits[i] || got[i] != dense[i] {
				t.Fatalf("trial %d index %d: %d vs %d vs %d", trial, i, got[i], fromBits[i], dense[i])
			}
		}
	}
}
