// Package snn implements the full-precision spiking substrate used by the
// paper's "Python (FP)" reference implementation: dense layers of
// integrate-and-fire neurons simulated step by step.
//
// The neuron model is the paper's eq (1): membrane potential integrates
// weighted presynaptic spikes plus bias with no leak, fires when it
// reaches the threshold θ, and resets by subtraction. Reset-by-subtraction
// (rather than reset-to-zero) preserves residual drive so the spike count
// over a phase is the floor-quantized linear response of eq (2),
// h = floor(u/θ) — the property the whole rate-domain analysis of EMSTDP
// rests on.
package snn

import (
	"fmt"
	"math/bits"

	"emstdp/internal/rng"
	"emstdp/internal/spike"
)

// Kernel selects the per-step integration kernel.
type Kernel int

const (
	// KernelPacked is the production kernel: presynaptic spikes as a
	// []uint64 bitset, trailing-zeros iteration over the nonzero words,
	// and a register-blocked multi-column scatter from the transposed
	// weight view.
	KernelPacked Kernel = iota
	// KernelDense is the O(Out×In) row gather over the dense spike
	// vector — the reference the equivalence suites compare the packed
	// kernel against.
	KernelDense
)

// IFLayer is a dense layer of integrate-and-fire neurons.
type IFLayer struct {
	In, Out int
	// W holds synaptic weights, row-major Out×In. Trainable layers are
	// updated in place by the EMSTDP trainer; any writer MUST call
	// MarkWeightsDirty afterwards so the transposed view is rebuilt.
	W []float64
	// Bias is a constant per-step membrane increment (paper eq 1's b_i).
	Bias []float64
	// Theta is the firing threshold.
	Theta float64
	// UMin floors the membrane potential. Error-driven inhibition in
	// EMSTDP's second phase would otherwise push silent neurons
	// arbitrarily negative, from which they could not recover within the
	// phase; the floor mirrors Loihi's saturating membrane register.
	UMin float64
	// Kernel selects the integration kernel (KernelDense is the
	// equivalence-test reference; leave the zero value in production).
	Kernel Kernel

	u      []float64
	spikes []bool
	active []int32
	bits   *spike.Bitset
	// wt is the column-major (In×Out) transposed weight view the packed
	// kernel scatters from; rebuilt lazily when wtDirty.
	wt      []float64
	wtDirty bool
	// acc is the membrane-drive accumulator both kernels fill.
	acc []float64
	// preScratch is the layer-owned presynaptic bitset used when Step is
	// called without a caller-provided one.
	preScratch *spike.Bitset
}

// NewIFLayer builds a dense IF layer with uniformly initialised weights
// W ~ U(-scale, scale), threshold theta and a membrane floor of -theta.
func NewIFLayer(r *rng.Source, in, out int, scale, theta float64) *IFLayer {
	l := &IFLayer{
		In: in, Out: out,
		W:          make([]float64, in*out),
		Bias:       make([]float64, out),
		Theta:      theta,
		UMin:       -theta,
		u:          make([]float64, out),
		spikes:     make([]bool, out),
		active:     make([]int32, 0, out),
		bits:       spike.NewBitset(out),
		wt:         make([]float64, in*out),
		wtDirty:    true,
		acc:        make([]float64, out),
		preScratch: spike.NewBitset(in),
	}
	r.FillUniform(l.W, -scale, scale)
	return l
}

// Clone returns a replica of the layer: weights and biases copied,
// dynamic state fresh. Replica networks for parallel execution are built
// from these.
func (l *IFLayer) Clone() *IFLayer {
	c := &IFLayer{
		In: l.In, Out: l.Out,
		W:          make([]float64, len(l.W)),
		Bias:       make([]float64, len(l.Bias)),
		Theta:      l.Theta,
		UMin:       l.UMin,
		Kernel:     l.Kernel,
		u:          make([]float64, l.Out),
		spikes:     make([]bool, l.Out),
		active:     make([]int32, 0, l.Out),
		bits:       spike.NewBitset(l.Out),
		wt:         make([]float64, len(l.W)),
		wtDirty:    true,
		acc:        make([]float64, l.Out),
		preScratch: spike.NewBitset(l.In),
	}
	copy(c.W, l.W)
	copy(c.Bias, l.Bias)
	return c
}

// MarkWeightsDirty invalidates the transposed weight view after W was
// written in place. The trainer calls it once per applied update (once
// per sample), so the rebuild is amortised over the 2T steps of the
// next sample rather than paid per step.
func (l *IFLayer) MarkWeightsDirty() { l.wtDirty = true }

// ensureTransposed rebuilds the In×Out view if W changed since the last
// build.
func (l *IFLayer) ensureTransposed() {
	if !l.wtDirty {
		return
	}
	for o := 0; o < l.Out; o++ {
		row := l.W[o*l.In : (o+1)*l.In]
		for i, w := range row {
			l.wt[i*l.Out+o] = w
		}
	}
	l.wtDirty = false
}

// Step integrates one timestep of presynaptic spikes and returns the
// layer's spike vector (valid until the next Step). preBits is the
// word-parallel view of the same spikes as the upstream producer
// publishes it; when nil, the packed kernel builds it from pre in
// layer-owned scratch. Both kernels accumulate each neuron's drive in
// the same order — bias first, then ascending presynaptic index — so the
// float result is bit-identical whichever runs.
func (l *IFLayer) Step(pre []bool, preBits *spike.Bitset) []bool {
	if len(pre) != l.In {
		panic(fmt.Sprintf("snn: layer expects %d inputs, got %d", l.In, len(pre)))
	}
	if l.Kernel == KernelDense {
		l.stepDense(pre)
		return l.spikes
	}
	if preBits == nil {
		preBits = l.preScratch
		preBits.FromBools(pre)
	}
	l.stepPacked(preBits)
	return l.spikes
}

// Active returns the indices of the neurons that fired in the last step
// (ascending; valid until the next step).
func (l *IFLayer) Active() []int32 { return l.active }

// Bits returns the word-parallel view of the last step's spikes (valid
// until the next step).
func (l *IFLayer) Bits() *spike.Bitset { return l.bits }

// stepDense is the O(Out×In) row-gather kernel — the reference the
// equivalence suites compare the packed kernel against.
func (l *IFLayer) stepDense(pre []bool) {
	acc := l.acc
	for o := 0; o < l.Out; o++ {
		row := l.W[o*l.In : (o+1)*l.In]
		a := l.Bias[o]
		for i, s := range pre {
			if s {
				a += row[i]
			}
		}
		acc[o] = a
	}
	l.finishAll()
}

// stepPacked is the word-parallel kernel: trailing-zeros iteration over
// the nonzero words of the presynaptic bitset gathers up to four
// transposed weight columns, which one fused pass adds into the
// accumulator. Per output neuron the four additions happen left to
// right — the same ascending-presynaptic-index order as the reference —
// but each accumulator element is loaded and stored once per four
// columns instead of once per column.
func (l *IFLayer) stepPacked(preBits *spike.Bitset) {
	l.ensureTransposed()
	out := l.Out
	acc := l.acc
	copy(acc, l.Bias)
	var cols [4][]float64
	nb := 0
	for wi, w := range preBits.Words() {
		base := wi << 6
		for w != 0 {
			k := base + bits.TrailingZeros64(w)
			w &= w - 1
			cols[nb] = l.wt[k*out : (k+1)*out]
			nb++
			if nb == 4 {
				addCols4(acc, cols[0], cols[1], cols[2], cols[3])
				nb = 0
			}
		}
	}
	switch nb {
	case 1:
		addCols1(acc, cols[0])
	case 2:
		addCols2(acc, cols[0], cols[1])
	case 3:
		addCols3(acc, cols[0], cols[1], cols[2])
	}
	l.finishAll()
}

// addCols1..4 add one to four weight columns into the accumulator in one
// pass. Go evaluates the chained additions left to right, preserving the
// reference's per-neuron accumulation order exactly.
func addCols1(acc, a []float64) {
	a = a[:len(acc)]
	for o := range acc {
		acc[o] = acc[o] + a[o]
	}
}

func addCols2(acc, a, b []float64) {
	a, b = a[:len(acc)], b[:len(acc)]
	for o := range acc {
		acc[o] = acc[o] + a[o] + b[o]
	}
}

func addCols3(acc, a, b, c []float64) {
	a, b, c = a[:len(acc)], b[:len(acc)], c[:len(acc)]
	for o := range acc {
		acc[o] = acc[o] + a[o] + b[o] + c[o]
	}
}

func addCols4(acc, a, b, c, d []float64) {
	a, b, c, d = a[:len(acc)], b[:len(acc)], c[:len(acc)], d[:len(acc)]
	for o := range acc {
		acc[o] = acc[o] + a[o] + b[o] + c[o] + d[o]
	}
}

// finishAll integrates the accumulated drive of every neuron,
// thresholds, and publishes the spikes in all three representations
// (dense vector, bitset, active list). The loop is branchless on the
// firing decision — spike bits are shifted into words and the reset
// subtraction is θ·(0|1), the same float64 values the branching form
// produces — because rate-coded firing is data-dependent and would
// mispredict.
func (l *IFLayer) finishAll() {
	theta, umin := l.Theta, l.UMin
	acc := l.acc
	words := l.bits.Words()
	var w uint64
	wi := 0
	for o, a := range acc {
		u := l.u[o] + a
		fired := u >= theta
		b := b2u(fired)
		u -= theta * float64(b)
		if u < umin {
			u = umin
		}
		l.u[o] = u
		l.spikes[o] = fired
		w |= b << (uint(o) & 63)
		if o&63 == 63 {
			words[wi] = w
			w = 0
			wi++
		}
	}
	if len(acc)&63 != 0 {
		words[wi] = w
	}
	l.active = l.bits.AppendIndices(l.active[:0])
}

// b2u converts a bool to 0/1 without a branch.
func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Inject adds v directly to neuron o's membrane potential. EMSTDP's
// second phase delivers error corrections this way: each error spike
// nudges the forward neuron's membrane so its rate settles at the target.
func (l *IFLayer) Inject(o int, v float64) {
	l.u[o] += v
	if l.u[o] < l.UMin {
		l.u[o] = l.UMin
	}
}

// Spikes returns the most recent spike vector.
func (l *IFLayer) Spikes() []bool { return l.spikes }

// Potential returns neuron o's current membrane potential.
func (l *IFLayer) Potential(o int) float64 { return l.u[o] }

// Reset zeroes membrane state and spike outputs (the paper's per-sample
// "Reset network state").
func (l *IFLayer) Reset() {
	for i := range l.u {
		l.u[i] = 0
		l.spikes[i] = false
	}
	l.active = l.active[:0]
	l.bits.Zero()
}

// ErrChannel is a bank of signed error accumulators implementing the
// paper's positive/negative error-channel pair (§III-A, eq 10). The chip
// realises this as two cross-connected populations of IF neurons; in the
// full-precision reference the pair is equivalent to one signed
// accumulator that emits +1 (positive-channel) or -1 (negative-channel)
// spikes when the accumulated error crosses ±θ. The equivalence is exact:
// the cross-connection in eq 10 makes the two channels integrate the same
// signed quantity with opposite signs.
type ErrChannel struct {
	// Theta is the error-spike granularity: one emitted spike represents
	// θ of accumulated error.
	Theta float64
	eps   []float64
	out   []int8
}

// NewErrChannel returns an error channel bank over n neurons.
func NewErrChannel(n int, theta float64) *ErrChannel {
	return &ErrChannel{Theta: theta, eps: make([]float64, n), out: make([]int8, n)}
}

// Len returns the number of error neurons.
func (e *ErrChannel) Len() int { return len(e.eps) }

// Accumulate adds drive to error neuron i's membrane.
func (e *ErrChannel) Accumulate(i int, drive float64) { e.eps[i] += drive }

// Step thresholds all accumulators, returning signed spikes in {-1,0,+1}.
// gate[i]==false suppresses neuron i's output — the h′ gating of eq (4),
// realised on chip by the multi-compartment AND (§III-A). Gated error is
// discarded, not banked: a suppressed neuron's membrane still resets, as
// the soma's threshold crossing consumes the potential whether or not the
// auxiliary compartment lets the spike out.
func (e *ErrChannel) Step(gate []bool) []int8 {
	return e.StepDir(gate, gate)
}

// StepDir thresholds with direction-specific gates: gatePos masks +1
// spikes, gateNeg masks −1 spikes. On chip the positive and negative
// error channels are separate populations, so each carries its own aux
// gate window — the positive channel's window excludes saturated forward
// partners (h′ = 0 above the shifted-ReLU bound) while the negative
// channel only requires activity, so an over-corrected neuron can always
// be pulled back down. A shared window for both signs ratchets: one
// oversized positive correction pushes the neuron past the bound, where
// a symmetric gate would block the negative spikes that could recover it.
func (e *ErrChannel) StepDir(gatePos, gateNeg []bool) []int8 {
	for i := range e.eps {
		var s int8
		if e.eps[i] >= e.Theta {
			e.eps[i] -= e.Theta
			s = 1
		} else if e.eps[i] <= -e.Theta {
			e.eps[i] += e.Theta
			s = -1
		}
		if s == 1 && gatePos != nil && !gatePos[i] {
			s = 0
		} else if s == -1 && gateNeg != nil && !gateNeg[i] {
			s = 0
		}
		e.out[i] = s
	}
	return e.out
}

// Reset zeroes accumulator state.
func (e *ErrChannel) Reset() {
	for i := range e.eps {
		e.eps[i] = 0
		e.out[i] = 0
	}
}
