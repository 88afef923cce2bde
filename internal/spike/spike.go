// Package spike provides the spike-domain primitives shared by the
// full-precision reference network and the chip netlist: the bias-driven
// input rate coder of §III-D, saturating trace counters matching Loihi's
// pre/post synaptic traces, and spike-count bookkeeping.
//
// The paper's input coding replaces per-spike host→chip I/O with a single
// bias write per sample: the input neuron integrates its bias i every
// step, U(t) = U(t-1) + i, and fires whenever U crosses θ. Over a phase of
// T steps it emits floor(i·T/θ) spikes — a rate linearly proportional to
// the input with one host transaction instead of O(T).
package spike

import (
	"emstdp/internal/fixed"
	"emstdp/internal/rng"
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

// BiasEncoder is a bank of bias-driven integrate-and-fire input neurons.
// Thresholds are uniform; biases are set once per sample.
type BiasEncoder struct {
	Theta  float64
	bias   []float64
	u      []float64
	spikes []bool
	active *ActiveList
	bits   *Bitset
}

// NewBiasEncoder returns an encoder for n input neurons with threshold
// theta.
func NewBiasEncoder(n int, theta float64) *BiasEncoder {
	return &BiasEncoder{
		Theta:  theta,
		bias:   make([]float64, n),
		u:      make([]float64, n),
		spikes: make([]bool, n),
		active: NewActiveList(n),
		bits:   NewBitset(n),
	}
}

// Len returns the number of input neurons.
func (e *BiasEncoder) Len() int { return len(e.bias) }

// SetBiases programs the per-neuron biases (the single host→chip write of
// §III-D). Values are copied.
func (e *BiasEncoder) SetBiases(b []float64) {
	if len(b) != len(e.bias) {
		panic("spike: bias length mismatch")
	}
	copy(e.bias, b)
}

// Step advances one timestep and returns the spike vector (valid until the
// next Step call). The matching bitset and active-index list are rebuilt
// in the same pass (readable through Bits and Active). The integration
// loop is branchless — firing is recorded as a shifted bit and the reset
// subtraction is θ·(0|1), exactly the same float64 values the branching
// form produces — because rate-coded firing decisions are data-dependent
// and mispredict at a cost comparable to the arithmetic itself.
func (e *BiasEncoder) Step() []bool {
	theta := e.Theta
	words := e.bits.words
	var w uint64
	wi := 0
	for i := range e.u {
		u := e.u[i] + e.bias[i]
		fired := u >= theta
		b := b2u(fired)
		e.u[i] = u - theta*float64(b)
		e.spikes[i] = fired
		w |= b << (uint(i) & 63)
		if i&63 == 63 {
			words[wi] = w
			w = 0
			wi++
		}
	}
	if len(e.u)&63 != 0 {
		words[wi] = w
	}
	e.active.GatherBits(e.bits)
	return e.spikes
}

// Active returns the indices of the neurons that fired in the last Step
// (ascending; valid until the next Step call).
func (e *BiasEncoder) Active() []int32 { return e.active.idx }

// Bits returns the word-parallel view of the last Step's spikes (valid
// until the next Step call).
func (e *BiasEncoder) Bits() *Bitset { return e.bits }

// Reset zeroes membrane state (biases are kept).
func (e *BiasEncoder) Reset() {
	for i := range e.u {
		e.u[i] = 0
	}
	e.active.Reset()
	e.bits.Zero()
}

// QuantizeToPhase quantizes real-valued inputs in [0,1] to T bins, the
// paper's "Quantize x to T bins" step: the returned values are k/T for
// integer k, so the spike count over a phase of T steps is exactly k.
func QuantizeToPhase(x []float64, T int) []float64 {
	return QuantizeToPhaseInto(make([]float64, len(x)), x, T)
}

// QuantizeToPhaseInto is the allocation-free variant of QuantizeToPhase:
// it quantizes into dst (which must have len(x) entries) and returns it.
// Per-sample hot loops keep a reusable dst.
func QuantizeToPhaseInto(dst, x []float64, T int) []float64 {
	if len(dst) != len(x) {
		panic("spike: quantize destination length mismatch")
	}
	for i, v := range x {
		k := int(fixed.ClampF(v, 0, 1)*float64(T) + 0.5)
		if k > T {
			k = T
		}
		dst[i] = float64(k) / float64(T)
	}
	return dst
}

// PoissonEncoder is the stochastic alternative to BiasEncoder: each
// neuron fires independently with per-step probability equal to its
// rate. Classic SNN work rate-codes inputs this way; the paper's
// deterministic bias integration produces the same mean rate with zero
// count variance, which is worth about a point of accuracy at T=64 (see
// the input-coding ablation).
type PoissonEncoder struct {
	rates  []float64
	spikes []bool
	rng    *rng.Source
}

// NewPoissonEncoder returns an encoder over n neurons.
func NewPoissonEncoder(n int, seed uint64) *PoissonEncoder {
	return &PoissonEncoder{
		rates:  make([]float64, n),
		spikes: make([]bool, n),
		rng:    rng.New(seed),
	}
}

// Len returns the number of input neurons.
func (e *PoissonEncoder) Len() int { return len(e.rates) }

// SetRates programs per-neuron firing probabilities (clamped to [0,1]).
func (e *PoissonEncoder) SetRates(r []float64) {
	if len(r) != len(e.rates) {
		panic("spike: rate length mismatch")
	}
	for i, v := range r {
		e.rates[i] = fixed.ClampF(v, 0, 1)
	}
}

// Step draws one timestep of spikes.
func (e *PoissonEncoder) Step() []bool {
	for i, r := range e.rates {
		e.spikes[i] = e.rng.Bernoulli(r)
	}
	return e.spikes
}

// Counter accumulates spike counts per neuron over a window.
type Counter struct {
	Counts []int
}

// NewCounter returns a counter over n neurons.
func NewCounter(n int) *Counter { return &Counter{Counts: make([]int, n)} }

// Observe adds the current spike vector.
func (c *Counter) Observe(spikes []bool) {
	for i, s := range spikes {
		if s {
			c.Counts[i]++
		}
	}
}

// ObserveActive adds one spike per listed index — the event-driven
// equivalent of Observe, O(spikes) instead of O(neurons).
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

// Total returns the sum of all counts.
func (c *Counter) Total() int {
	t := 0
	for _, v := range c.Counts {
		t += v
	}
	return t
}

// Trace is a bank of Loihi-style saturating trace counters: on each
// presynaptic/postsynaptic spike the trace is incremented by Impulse, and
// every step it decays by the configured shift (tau=0 disables decay,
// giving a plain saturating spike counter — the configuration EMSTDP uses,
// where traces hold phase spike counts).
type Trace struct {
	Impulse    int
	DecayNum   int // decay multiplier numerator; trace = trace*DecayNum>>DecayShift
	DecayShift uint
	vals       []int
}

// NewTrace returns a trace bank of n counters with the given impulse and
// no decay.
func NewTrace(n, impulse int) *Trace {
	return &Trace{Impulse: impulse, DecayNum: 1, DecayShift: 0, vals: make([]int, n)}
}

// Step applies decay then adds impulses for the given spikes. The
// no-decay configuration (DecayShift == 0, EMSTDP's setting) takes a
// fast path that touches only the spiking entries instead of paying the
// decay branch for every element every step.
func (t *Trace) Step(spikes []bool) {
	if t.DecayShift == 0 {
		for i, s := range spikes {
			if s {
				t.vals[i] = int(fixed.SatTrace(int64(t.vals[i]) + int64(t.Impulse)))
			}
		}
		return
	}
	for i := range t.vals {
		t.vals[i] = (t.vals[i] * t.DecayNum) >> t.DecayShift
		if spikes[i] {
			t.vals[i] = int(fixed.SatTrace(int64(t.vals[i]) + int64(t.Impulse)))
		}
	}
}

// StepActive is the event-driven no-decay step: a plain saturating count
// over the given active indices, O(spikes) per step. Only valid with
// decay disabled — with decay every element changes every step, so a
// sparse walk cannot be equivalent.
func (t *Trace) StepActive(active []int32) {
	if t.DecayShift != 0 {
		panic("spike: StepActive requires the no-decay configuration")
	}
	for _, i := range active {
		t.vals[i] = int(fixed.SatTrace(int64(t.vals[i]) + int64(t.Impulse)))
	}
}

// Get returns the trace value for neuron i.
func (t *Trace) Get(i int) int { return t.vals[i] }

// Values returns the underlying trace values (not a copy).
func (t *Trace) Values() []int { return t.vals }

// Reset zeroes the trace bank.
func (t *Trace) Reset() {
	for i := range t.vals {
		t.vals[i] = 0
	}
}
