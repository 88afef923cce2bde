package spike

import "math/bits"

// Bitset is the word-parallel spike representation of the hot path: bit i
// set means neuron i fired this step, 64 neurons per uint64 word. Neuron
// layers publish it alongside the ActiveList index view (and, on the FP
// side, the dense []bool vector); the input encoder publishes it alone.
// Packed delivery kernels iterate the nonzero words with
// math/bits.TrailingZeros64 instead of scanning a dense vector or
// chasing one int32 index at a time.
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset returns an empty bitset over n neurons.
func NewBitset(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+63)>>6)}
}

// Len returns the number of neurons the set covers.
func (b *Bitset) Len() int { return b.n }

// Words exposes the backing words (not a copy; bit i of word w is neuron
// w*64+i). Trailing bits of the last word beyond Len are always zero.
func (b *Bitset) Words() []uint64 { return b.words }

// Zero clears every bit.
func (b *Bitset) Zero() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Set marks neuron i as fired.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether neuron i fired.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]>>(uint(i)&63)&1 != 0 }

// Count returns the number of set bits (the step's popcount).
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo,hi) — the popcount
// of one slice of the neurons, such as the shard a die hosts.
func (b *Bitset) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if first == last {
		return bits.OnesCount64(b.words[first] & loMask & hiMask)
	}
	c := bits.OnesCount64(b.words[first]&loMask) + bits.OnesCount64(b.words[last]&hiMask)
	for _, w := range b.words[first+1 : last] {
		c += bits.OnesCount64(w)
	}
	return c
}

// FromBools rebuilds the set from a dense spike vector of length Len.
// The word assembly is branchless: each bool becomes a shifted bit, so
// unpredictable spike patterns cost no mispredictions here.
func (b *Bitset) FromBools(spikes []bool) {
	if len(spikes) != b.n {
		panic("spike: bitset length mismatch")
	}
	words := b.words
	var w uint64
	wi := 0
	for i, s := range spikes {
		w |= uint64(b2u(s)) << (uint(i) & 63)
		if i&63 == 63 {
			words[wi] = w
			w = 0
			wi++
		}
	}
	if b.n&63 != 0 {
		words[wi] = w
	}
}

// AppendIndices appends the set bits to dst in ascending order —
// popcount-driven iteration, cost proportional to the set bits.
func (b *Bitset) AppendIndices(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi) << 6
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ToBools writes the dense vector form into dst (length Len).
func (b *Bitset) ToBools(dst []bool) {
	if len(dst) != b.n {
		panic("spike: bitset length mismatch")
	}
	for i := range dst {
		dst[i] = b.words[i>>6]>>(uint(i)&63)&1 != 0
	}
}

// b2u converts a bool to 0/1 without a branch (the compiler lowers this
// to SETcc).
func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// GatherBits rebuilds the list from a bitset via trailing-zeros iteration
// and returns the indices — branch cost proportional to the popcount, not
// the neuron count.
func (a *ActiveList) GatherBits(b *Bitset) []int32 {
	a.idx = b.AppendIndices(a.idx[:0])
	return a.idx
}
