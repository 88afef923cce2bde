package chipnet

import "fmt"

// EventTrain is a sequence of input spike masks, one per timestep —
// the native output format of an event sensor such as a DVS camera.
type EventTrain [][]bool

// validateEvents checks shape against the network's input.
func (n *Network) validateEvents(events EventTrain) {
	if !n.cfg.SpikeInput {
		panic("chipnet: event API requires Config.SpikeInput")
	}
	pop := n.inputPop()
	for t, mask := range events {
		if len(mask) != pop.N {
			panic(fmt.Sprintf("chipnet: event mask at t=%d has %d entries, want %d", t, len(mask), pop.N))
		}
	}
}

// TrainSampleEvents runs the two-phase EMSTDP schedule on an event-train
// sample through RunPhases' boundary and step loop: the train is
// injected in both phases, and phase 2 replays W1's phase-1 drive as it
// does for bias input.
func (n *Network) TrainSampleEvents(events EventTrain, label int) {
	if n.cfg.InferenceOnly {
		panic("chipnet: TrainSampleEvents on an inference-only deployment")
	}
	n.validateEvents(events)
	if label < 0 || label >= n.label.N {
		panic(fmt.Sprintf("chipnet: label %d out of range [0,%d)", label, n.label.N))
	}
	n.resetSample(label)
	n.runPhases(true, events)
	n.mesh.ApplyLearning()
}

// CountsEvents classifies an event train with a phase-1-only pass and
// returns output spike counts.
func (n *Network) CountsEvents(events EventTrain) []int {
	n.validateEvents(events)
	n.resetSample(-1)
	n.runPhases(false, events)
	return n.ReadCounts()
}

// PredictEvents returns the argmax class for an event train (see
// outputArgmax).
func (n *Network) PredictEvents(events EventTrain) int {
	n.validateEvents(events)
	n.resetSample(-1)
	n.runPhases(false, events)
	return n.outputArgmax()
}
