package chipnet

import (
	"fmt"

	"emstdp/internal/loihi"
)

// inputPop returns the population that receives sample biases: the image
// population when a conv front end is present, else the feature input.
func (n *Network) inputPop() *loihi.Population {
	if n.conv != nil {
		return n.conv.image
	}
	return n.input
}

// programInput quantizes rates in [0,1] to T bins and writes them as
// biases k·θ/T (§III-D) — one host transaction regardless of input size,
// versus O(activeInputs·T) spike insertions for direct injection.
func (n *Network) programInput(x []float64) {
	pop := n.inputPop()
	if len(x) != pop.N {
		panic(fmt.Sprintf("chipnet: input size %d, want %d", len(x), pop.N))
	}
	T := int32(n.cfg.T)
	unit := n.cfg.Theta / T
	biases := n.inputBias
	for i, v := range x {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		k := int32(v*float64(T) + 0.5)
		biases[i] = k * unit
	}
	pop.SetBiases(biases)
	n.fab.CountHostTransaction(1)
}

// programLabel writes the target-class biases onto the label neurons.
func (n *Network) programLabel(label int) {
	T := float64(n.cfg.T)
	biases := n.labelBias
	for j := range biases {
		rate := n.cfg.TargetLow
		if j == label {
			rate = n.cfg.TargetHigh
		}
		k := int32(rate*T + 0.5)
		biases[j] = k * (n.cfg.Theta / int32(n.cfg.T))
	}
	n.label.SetBiases(biases)
	n.fab.CountHostTransaction(1)
}

// TrainSample runs the two-phase EMSTDP schedule for one labelled sample
// (Operation Flow 1): phase 1 settles h, the phase boundary latches the
// h′ gates and clears the phase traces, phase 2 drives the rates to ĥ,
// and the learning epoch applies the eq-12 update from traces and tags.
func (n *Network) TrainSample(x []float64, label int) {
	if label < 0 {
		panic(fmt.Sprintf("chipnet: label %d out of range", label))
	}
	n.ProgramSample(x, label)
	n.RunPhases(true)
	n.ApplyUpdate(nil)
}

// ProgramSample resets the chip's dynamic state and programs one
// sample's input biases; label >= 0 stages a training target for
// RunPhases(true), label < 0 programs an inference-only pass. First step
// of the engine.Runner protocol.
func (n *Network) ProgramSample(x []float64, label int) {
	if label >= 0 {
		if n.cfg.InferenceOnly {
			panic("chipnet: training sample on an inference-only deployment")
		}
		if label >= n.label.N {
			panic(fmt.Sprintf("chipnet: label %d out of range [0,%d)", label, n.label.N))
		}
	}
	n.fab.ResetState()
	n.programInput(x)
	if n.label != nil {
		n.label.SetBiases(n.zeroLabel)
		n.phase.SetBiases(n.phaseOff)
	}
	n.pendingLabel = label
}

// RunPhases executes phase 1 and, when train is true, the phase
// boundary (gate latch, trace and membrane reset, label and
// phase-control writes) plus phase 2. The learning epoch is NOT fired —
// that is ApplyUpdate, so a replica can run the phases while the master
// applies the update.
func (n *Network) RunPhases(train bool) {
	n.fab.Run(n.cfg.T) // phase 1
	if !train {
		return
	}
	if n.pendingLabel < 0 {
		panic("chipnet: RunPhases(train) without a labelled ProgramSample")
	}
	n.fab.LatchGates()
	n.fab.ResetPhaseTraces()
	n.fab.ResetMembranes()
	n.programLabel(n.pendingLabel)
	n.phase.SetBiases(n.phaseOn)
	n.fab.CountHostTransaction(1) // the phase-control bias write

	n.fab.Run(n.cfg.T) // phase 2
}

// ReadCounts returns the output layer's spike counts from the most
// recent RunPhases.
func (n *Network) ReadCounts() []int {
	out := n.fwd[len(n.fwd)-1]
	counts := make([]int, out.N)
	for i := range counts {
		counts[i] = int(out.PostTrace(i))
	}
	return counts
}

// Counts classifies x with a phase-1-only pass (inference mode: the
// error path stays gated off) and returns output spike counts.
func (n *Network) Counts(x []float64) []int {
	n.ProgramSample(x, -1)
	n.RunPhases(false)
	return n.ReadCounts()
}

// Predict returns the argmax class for x, breaking spike-count ties with
// residual membrane potential. Reads the output traces in place (no
// per-call allocation, unlike Counts).
func (n *Network) Predict(x []float64) int {
	n.ProgramSample(x, -1)
	n.RunPhases(false)
	out := n.fwd[len(n.fwd)-1]
	best, bi := -1.0, 0
	for i := 0; i < out.N; i++ {
		score := float64(out.PostTrace(i)) + float64(out.Potential(i))/float64(n.cfg.Theta)
		if score > best {
			best, bi = score, i
		}
	}
	return bi
}

// OutputCountsPhase2 returns the output layer's phase-2 spike counts of
// the most recent TrainSample — ĥ, exposed for tests and diagnostics.
func (n *Network) OutputCountsPhase2() []int {
	out := n.fwd[len(n.fwd)-1]
	counts := make([]int, out.N)
	for i := range counts {
		counts[i] = int(out.PostTrace(i))
	}
	return counts
}

// Weight returns plastic layer li's effective weight (θ=1 units) for
// post neuron o, pre neuron k — comparable to the reference network's
// float weights.
func (n *Network) Weight(li, o, k int) float64 {
	return n.plastic[li].WeightFloat(o, k, float64(n.cfg.Theta))
}

// HiddenDebug returns the summed phase-1-at-last-Counts and
// phase-2-at-last-TrainSample spike counts of the first hidden layer —
// a development diagnostic.
func (n *Network) HiddenDebug() [2]int {
	if len(n.fwd) < 2 {
		return [2]int{}
	}
	h := n.fwd[0]
	sum := 0
	for i := 0; i < h.N; i++ {
		sum += int(h.PostTrace(i))
	}
	return [2]int{-1, sum}
}
