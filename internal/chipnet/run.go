package chipnet

import (
	"fmt"

	"emstdp/internal/loihi"
	"emstdp/internal/spike"
)

// inputPop returns the population that receives sample biases: the image
// population when a conv front end is present, else the feature input.
func (n *Network) inputPop() *loihi.Population {
	if n.conv != nil {
		return n.conv.image
	}
	return n.input
}

// programInput quantizes rates to T bins with the FP backend's
// spike.PhaseLevel (clamped to [0,1], NaN silent) and writes them as
// biases k·θ/T (§III-D) — one host transaction regardless of input size,
// versus O(activeInputs·T) spike insertions for direct injection.
func (n *Network) programInput(x []float64) {
	pop := n.inputPop()
	if len(x) != pop.N {
		panic(fmt.Sprintf("chipnet: input size %d, want %d", len(x), pop.N))
	}
	unit := n.cfg.Theta / int32(n.cfg.T)
	biases := n.inputBias
	for i, v := range x {
		biases[i] = int32(spike.PhaseLevel(v, n.cfg.T)) * unit
	}
	pop.SetBiases(biases)
	n.mesh.CountHostTransaction(1)
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
	n.mesh.CountHostTransaction(1)
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
	n.resetSample(label)
	n.programInput(x)
}

// resetSample zeroes the chip's dynamic state, silences the label and
// the error path for phase 1, and stages label (-1: none) for
// RunPhases(true).
func (n *Network) resetSample(label int) {
	n.mesh.ResetState()
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
//
// Phase 2 replays phase 1's input side: W1 records its drive into fwd0
// during phase 1 and copies it back step for step in phase 2 instead of
// scattering every presynaptic spike again, keeping the trace increments
// and synaptic-event counts of a live delivery. This is exact because
// the boundary resets every membrane and nothing feeds back into the
// input side (bias input, conv front end), so W1's presynaptic spikes
// repeat in phase 2; W1's weights change only at the learning epoch; and
// W1 is the first connector into fwd0 on every die (checked when the
// netlist is built), so it adds into a zero accumulator and the recorded
// drive already holds any saturation. RunPhases(false) runs live and
// records nothing.
func (n *Network) RunPhases(train bool) {
	if !train {
		n.runPhase(loihi.TapeLive)
		return
	}
	if n.pendingLabel < 0 {
		panic("chipnet: RunPhases(train) without a labelled ProgramSample")
	}
	n.runPhase(loihi.TapeRecord) // phase 1

	n.mesh.LatchGates()
	n.mesh.ResetPhaseTraces()
	n.mesh.ResetMembranes()
	n.programLabel(n.pendingLabel)
	n.phase.SetBiases(n.phaseOn)
	n.mesh.CountHostTransaction(1) // the phase-control bias write

	n.runPhase(loihi.TapeReplay) // phase 2
}

// runPhase advances one phase of T steps with W1's drive tape in the
// given mode.
func (n *Network) runPhase(tape loihi.TapeMode) {
	w1 := n.plastic[0]
	for t := 0; t < n.cfg.T; t++ {
		w1.SetTape(tape, t)
		n.mesh.Step()
	}
	w1.SetTape(loihi.TapeLive, 0)
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

// Predict returns the argmax class for x (see outputArgmax).
func (n *Network) Predict(x []float64) int {
	n.ProgramSample(x, -1)
	n.RunPhases(false)
	return n.outputArgmax()
}

// outputArgmax returns the output neuron with the most spikes in the
// most recent phase 1, breaking count ties with residual membrane
// potential. It reads the output traces in place (no per-call
// allocation, unlike ReadCounts).
func (n *Network) outputArgmax() int {
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

// Weight returns plastic layer li's effective weight (θ=1 units) for
// post neuron o, pre neuron k — comparable to the reference network's
// float weights.
func (n *Network) Weight(li, o, k int) float64 {
	return n.plastic[li].WeightFloat(o, k, float64(n.cfg.Theta))
}
