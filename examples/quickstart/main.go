// Quickstart: train the paper's network online on the synthetic MNIST
// task with the Loihi-class chip backend, then evaluate.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
)

func main() {
	// Build the paper's experimental unit: synthetic dataset, offline
	// conv pretraining (frozen), EMSTDP-trainable dense layers on the
	// simulated chip. Sizes kept small so the demo runs in seconds.
	m, err := core.Build(core.Options{
		Dataset:      dataset.MNIST,
		Backend:      core.Chip,
		TrainSamples: 600,
		TestSamples:  200,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("offline conv pretraining accuracy: %.1f%%\n", m.PretrainAccuracy*100)
	fmt.Printf("chip deployment: %d cores, %d plastic synapses\n",
		m.ChipNetwork().CoresUsed(), m.ChipNetwork().NumPlasticSynapses())

	// Online learning: one sample at a time, two phases of T steps each,
	// weights updated on chip by the eq (12) learning engine.
	for epoch := 1; epoch <= 2; epoch++ {
		m.TrainEpoch()
		fmt.Printf("epoch %d: test accuracy %.1f%%\n", epoch, m.Evaluate().Accuracy()*100)
	}

	// Inspect a few predictions.
	cm := m.Evaluate()
	fmt.Printf("final accuracy %.1f%% over %d test samples\n", cm.Accuracy()*100, cm.Total())
}
