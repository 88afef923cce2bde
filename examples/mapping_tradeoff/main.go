// Mapping trade-off (§III-C, Fig 3): sweep how many logical neurons are
// packed per neuromorphic core. Fewer cores means lower active power
// (idle cores are power-gated) but longer steps (each core services its
// compartments serially), so energy per sample is U-shaped and there is
// a best packing.
//
//	go run ./examples/mapping_tradeoff
package main

import (
	"fmt"
	"log"
	"strings"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/energy"
)

func main() {
	model := energy.DefaultLoihi()
	fmt.Println("neurons/core sweep on the MNIST network (training):")
	fmt.Printf("%-8s %-7s %-10s %-10s %s\n", "n/core", "cores", "power(W)", "mJ/sample", "")

	best, bestPer := 1e18, 0
	for per := 5; per <= 30; per += 5 {
		m, err := core.Build(core.Options{
			Dataset:        dataset.MNIST,
			Backend:        core.Chip,
			ConvOnChip:     true,
			NeuronsPerCore: per,
			TrainSamples:   16,
			TestSamples:    10,
			PretrainEpochs: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		net := m.ChipNetwork()
		net.ResetCounters()
		const samples = 8
		for i := 0; i < samples; i++ {
			s := m.DS.Train[i]
			net.TrainSample(s.Image.Data, s.Label)
		}
		rep := model.Analyze(net.Counters(), net.CoresUsed(),
			net.MaxPlasticNeuronsPerCore(), samples, true)
		bar := strings.Repeat("=", int(rep.EnergyPerSampleJ*1e3))
		fmt.Printf("%-8d %-7d %-10.3f %-10.2f %s\n",
			per, rep.CoresUsed, rep.PowerWatts, rep.EnergyPerSampleJ*1e3, bar)
		if rep.EnergyPerSampleJ < best {
			best, bestPer = rep.EnergyPerSampleJ, per
		}
	}
	fmt.Printf("\nbest packing: %d neurons/core (%.2f mJ/sample) — the paper picks 10\n",
		bestPer, best*1e3)
	fmt.Println("for Table II from the same analysis (Fig 3).")
}
