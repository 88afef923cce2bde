package main

import "emstdp/internal/loihi"

// fingerprint is the exact result of a workload's fixed work: FP online
// training (accuracy on the test split, phase-1 spikes over one pass of
// the train split) and one chip training round (accuracy, activity
// counters, mesh traffic). Every value is deterministic for a fixed
// configuration and independent of timing, worker count and --seed.
type fingerprint struct {
	FPAccuracy   float64
	FPSpikes     int64
	ChipAccuracy float64
	Chip         loihi.Counters
	Traffic      loihi.MeshTraffic
}

// The pinned fingerprints of the two standard workloads. A change that
// moves one changed what the program computes, not only how fast.
var (
	goldenMNIST = &fingerprint{
		FPAccuracy: 0.92, FPSpikes: 1070308, ChipAccuracy: 0.25,
		Chip: loihi.Counters{Steps: 12800, Spikes: 684315, SynapticEvents: 37955007,
			CompartmentUpdates: 7180800, LearningOps: 2100000, ActiveCoreSteps: 729600, HostTransactions: 300},
		Traffic: loihi.MeshTraffic{CrossDieSpikes: 1233953, SpikeHops: 1644020, StallCycles: 8, MaxLinkLoad: 68},
	}
	goldenFashion = &fingerprint{
		FPAccuracy: 0.698, FPSpikes: 880228, ChipAccuracy: 0.108,
		Chip: loihi.Counters{Steps: 12800, Spikes: 489944, SynapticEvents: 26208448,
			CompartmentUpdates: 7180800, LearningOps: 2100000, ActiveCoreSteps: 729600, HostTransactions: 300},
		Traffic: loihi.MeshTraffic{CrossDieSpikes: 833713, SpikeHops: 1105733, StallCycles: 74, MaxLinkLoad: 75},
	}
)
