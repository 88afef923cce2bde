// Package spike provides the spike-domain primitives shared by the
// full-precision reference network and the chip netlist: the bias-driven
// input rate coder of §III-D, spike bitsets and active lists, and
// spike-count bookkeeping.
//
// The paper's input coding replaces per-spike host→chip I/O with a single
// bias write per sample: the input neuron integrates its bias i every
// step, U(t) = U(t-1) + i, and fires whenever U crosses θ. Over a phase of
// T steps it emits floor(i·T/θ) spikes — a rate linearly proportional to
// the input with one host transaction instead of O(T). An input quantized
// to level k of T+1 takes the bias k·θ/T and fires exactly k times.
//
// Because the bias is written once and inputs are quantized to T+1
// levels, each input's spike train is fixed before the phase starts.
// BiasEncoder therefore computes every level's train once, when it is
// built, and serves a sample's steps as precomputed bitsets; the
// per-neuron phase counts are those trains' popcounts.
package spike

import (
	"math/bits"

	"emstdp/internal/fixed"
)

// ActiveList is the index view of a step's spikes: the ascending
// indices of the neurons that fired, rebuilt in place from the
// producer's bitset each step (GatherBits; the backing array is reused,
// so steady-state use allocates nothing). Spike counters, multi-die
// spike routing and aux-compartment gating consume it.
type ActiveList struct {
	idx []int32
}

// NewActiveList returns a list with capacity for n neurons.
func NewActiveList(n int) *ActiveList {
	return &ActiveList{idx: make([]int32, 0, n)}
}

// Indices returns the current active indices (ascending).
func (a *ActiveList) Indices() []int32 { return a.idx }

// Len returns the number of active neurons (the step's popcount).
func (a *ActiveList) Len() int { return len(a.idx) }

// Reset empties the list.
func (a *ActiveList) Reset() { a.idx = a.idx[:0] }

// BiasEncoder is a bank of bias-driven integrate-and-fire input neurons
// over a phase of T steps. A neuron's spike train over the phase depends
// on its bias alone, and every neuron takes its bias from one fixed
// table — the T+1 quantization levels of an input rate (NewLevelEncoder),
// or the two target rates of the label neurons (NewBiasEncoder). So the
// encoder builds each table entry's train once, at construction, and
// keeps it as bits. Programming a sample (the single bias write of §III-D)
// lays the chosen trains out as T step bitsets, and each Step hands out
// the next one: no neuron is integrated while a phase runs.
type BiasEncoder struct {
	n, steps int
	// tw is the words per train, (T+63)/64; nw the words per step row,
	// (n+63)/64.
	tw, nw int
	// trains holds table entry e's train in words [e·tw, (e+1)·tw): bit
	// t set means a neuron with that bias fires at step t. counts[e] is
	// the train's popcount, its spike count over the phase.
	trains []uint64
	counts []int
	// raster is the programmed sample, T rows of nw words: row t holds
	// the spikes of step t. count is each neuron's phase spike count.
	raster []uint64
	count  []int
	row    Bitset // the row the last Step returned
	t      int    // the next step
}

// NewBiasEncoder returns an encoder for n neurons with threshold theta
// over phases of T steps, whose neurons take their biases from the given
// table. Each entry's train is the float recurrence u += bias, fire when
// u ≥ θ, then u −= θ, run from u = 0.
func NewBiasEncoder(n, T int, theta float64, biases []float64) *BiasEncoder {
	e := newBiasEncoder(n, T, len(biases))
	for k, bias := range biases {
		train := e.train(k)
		u := 0.0
		for t := 0; t < T; t++ {
			u += bias
			if u >= theta {
				u -= theta
				train[t>>6] |= 1 << (uint(t) & 63)
			}
		}
	}
	e.countTrains()
	return e
}

// NewLevelEncoder returns the input encoder for n neurons over phases of
// T steps, whose table holds the T+1 quantization levels of PhaseLevel.
// Level k fires at step t iff ⌊(t+1)k/T⌋ > ⌊tk/T⌋: the chip's schedule
// for a bias of k·θ/T with reset by subtraction, computed in integers,
// so every level fires exactly k times at any T and θ. (A float running
// sum of k/T·θ can land just under kθ and leave level k one spike short
// unless T and θ are powers of two, where the two schedules agree.)
func NewLevelEncoder(n, T int) *BiasEncoder {
	e := newBiasEncoder(n, T, T+1)
	for k := 0; k <= T; k++ {
		train := e.train(k)
		for t := 0; t < T; t++ {
			if (t+1)*k/T > t*k/T {
				train[t>>6] |= 1 << (uint(t) & 63)
			}
		}
	}
	e.countTrains()
	return e
}

// newBiasEncoder allocates an encoder with an empty table of the given
// number of entries.
func newBiasEncoder(n, T, entries int) *BiasEncoder {
	e := &BiasEncoder{
		n: n, steps: T,
		tw:     (T + 63) >> 6,
		nw:     (n + 63) >> 6,
		counts: make([]int, entries),
		count:  make([]int, n),
	}
	e.trains = make([]uint64, entries*e.tw)
	e.raster = make([]uint64, T*e.nw)
	e.row = Bitset{n: n, words: e.raster[:e.nw]}
	return e
}

// train returns table entry k's train words.
func (e *BiasEncoder) train(k int) []uint64 { return e.trains[k*e.tw : (k+1)*e.tw] }

// countTrains fills every entry's spike count from its train.
func (e *BiasEncoder) countTrains() {
	for k := range e.counts {
		for _, w := range e.train(k) {
			e.counts[k] += bits.OnesCount64(w)
		}
	}
}

// Len returns the number of input neurons.
func (e *BiasEncoder) Len() int { return e.n }

// SetLevels programs the sample: neuron i takes the bias of table entry
// levels[i]. It rewrites every step row and the phase counts; Reset
// starts the phase.
func (e *BiasEncoder) SetLevels(levels []int) {
	if len(levels) != e.n {
		panic("spike: level count mismatch")
	}
	clear(e.raster)
	for i, lv := range levels {
		e.count[i] = e.counts[lv]
		bit, col := uint64(1)<<(uint(i)&63), i>>6
		for wi, w := range e.train(lv) {
			for w != 0 {
				t := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				e.raster[t*e.nw+col] |= bit
			}
		}
	}
}

// Step returns the next step's spikes (valid until the next Step or
// SetLevels). A phase has T steps.
func (e *BiasEncoder) Step() *Bitset {
	if e.t == e.steps {
		panic("spike: encoder stepped past the end of its phase")
	}
	e.row.words = e.raster[e.t*e.nw : (e.t+1)*e.nw]
	e.t++
	return &e.row
}

// Counts returns each neuron's spike count over the programmed phase —
// its train's popcount, known before any step runs (not a copy).
func (e *BiasEncoder) Counts() []int { return e.count }

// Reset rewinds to the phase's first step (the programmed trains are
// kept).
func (e *BiasEncoder) Reset() { e.t = 0 }

// PhaseLevel returns the quantization level k of rate v over a phase of
// T steps, the paper's "Quantize x to T bins" step: v is clamped to
// [0,1] and rounded to the nearest k/T. NaN, which no clamp orders, maps
// to level 0, the silent input.
func PhaseLevel(v float64, T int) int {
	if v != v {
		return 0
	}
	k := int(fixed.ClampF(v, 0, 1)*float64(T) + 0.5)
	if k > T {
		k = T
	}
	return k
}

// Counter accumulates spike counts per neuron over a window.
type Counter struct {
	Counts []int
}

// NewCounter returns a counter over n neurons.
func NewCounter(n int) *Counter { return &Counter{Counts: make([]int, n)} }

// ObserveActive adds one spike per listed index, O(spikes) rather than
// O(neurons).
func (c *Counter) ObserveActive(active []int32) {
	for _, i := range active {
		c.Counts[i]++
	}
}

// Reset zeroes all counts.
func (c *Counter) Reset() {
	for i := range c.Counts {
		c.Counts[i] = 0
	}
}
