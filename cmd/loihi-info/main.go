// Command loihi-info reports how an EMSTDP network maps onto the
// simulated chip: the Operation Flow 1 plan (per-layer adjacency-derived
// fan-ins and core assignment), the realised core occupancy, and the
// host-I/O cost of the bias-driven input coding versus direct spike
// insertion (§III-D).
//
//	loihi-info -dataset mnist -mode dfa -neurons-per-core 10
package main

import (
	"flag"
	"fmt"
	"os"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/raster"
)

func main() {
	dsName := flag.String("dataset", "mnist", "dataset: mnist, fashion, cifar10, mstar")
	mode := flag.String("mode", "dfa", "feedback mode: fa or dfa")
	perCore := flag.Int("neurons-per-core", 10, "dense-part packing")
	hidden := flag.Int("hidden", 100, "hidden layer width")
	showRaster := flag.Bool("raster", false, "print a spike raster of one two-phase training sample")
	flag.Parse()

	var kind dataset.Kind
	switch *dsName {
	case "mnist":
		kind = dataset.MNIST
	case "fashion":
		kind = dataset.FashionMNIST
	case "cifar10":
		kind = dataset.CIFAR10
	case "mstar":
		kind = dataset.MSTAR
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dsName)
		os.Exit(2)
	}
	fbMode := emstdp.DFA
	if *mode == "fa" {
		fbMode = emstdp.FA
	}

	m, err := core.Build(core.Options{
		Dataset:        kind,
		Backend:        core.Chip,
		Mode:           fbMode,
		Hidden:         []int{*hidden},
		ConvOnChip:     true,
		NeuronsPerCore: *perCore,
		TrainSamples:   20,
		TestSamples:    10,
		PretrainEpochs: 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n", err)
		os.Exit(1)
	}
	net := m.ChipNetwork()
	hw := loihi.DefaultHardware()

	c, h, w := dataset.Shape(kind)
	fmt.Printf("network: %dx%dx%d - 5x5k16c2s - 3x3k8c2s - %dd - %dd (%v feedback)\n",
		w, h, c, *hidden, m.DS.NumClasses, fbMode)
	fmt.Printf("chip: %d cores, %d compartments/core, %d synapses/core\n\n",
		hw.NumCores, hw.MaxCompartmentsPerCore, hw.MaxSynapsesPerCore)

	// The Operation Flow 1 plan for the forward path.
	adj1 := mapping.NewConvAdjacency(c, h, w, 16, 5, 5, 2)
	o1h, o1w := (h-5)/2+1, (w-5)/2+1
	adj2 := mapping.NewConvAdjacency(16, o1h, o1w, 8, 3, 3, 2)
	layers := []mapping.LayerSpec{
		mapping.ConvSpec("conv1", c, 5, 5, 16, o1h, o1w, adj2.MaxFanIn()),
		mapping.ConvSpec("conv2", 16, 3, 3, 8, (o1h-3)/2+1, (o1w-3)/2+1, *hidden),
		mapping.DenseSpec("dense1", m.Conv.OutSize(), *hidden, m.DS.NumClasses),
		mapping.DenseSpec("output", *hidden, m.DS.NumClasses, 0),
	}
	fmt.Println("Operation Flow 1 plan (forward path):")
	fmt.Printf("  %-8s %-9s %-8s %-9s %-7s %s\n", "layer", "neurons", "fan-in", "synapses", "n/core", "cores")
	for i, spec := range layers {
		per := mapping.NeuronsPerCoreFor(hw, spec, *perCore)
		if spec.Kind == mapping.Conv {
			per = mapping.NeuronsPerCoreFor(hw, spec, 512)
		}
		cores := (spec.Neurons + per - 1) / per
		syn := spec.Neurons * spec.FanIn
		if i == 0 {
			syn = adj1.Synapses()
		} else if i == 1 {
			syn = adj2.Synapses()
		}
		fmt.Printf("  %-8s %-9d %-8d %-9d %-7d %d\n", spec.Name, spec.Neurons, spec.FanIn, syn, per, cores)
	}

	fmt.Printf("\nrealised deployment (forward + error paths):\n")
	fmt.Printf("  cores used:            %d\n", net.CoresUsed())
	fmt.Printf("  busiest core:          %d compartments\n", net.MaxNeuronsPerCore())
	fmt.Printf("  busiest plastic core:  %d compartments\n", net.MaxPlasticNeuronsPerCore())
	fmt.Printf("  plastic synapses:      %d\n", net.NumPlasticSynapses())

	occ := net.Mesh().Die(0).CoreOccupancy()
	fmt.Printf("  occupancy histogram (compartments per core):\n")
	buckets := map[string]int{}
	for _, n := range occ {
		switch {
		case n == 0:
		case n <= 16:
			buckets["  1-16"]++
		case n <= 128:
			buckets[" 17-128"]++
		default:
			buckets[">128"]++
		}
	}
	for _, k := range []string{"  1-16", " 17-128", ">128"} {
		if buckets[k] > 0 {
			fmt.Printf("    %s: %d cores\n", k, buckets[k])
		}
	}

	// §III-D: host I/O for bias coding vs direct spike insertion.
	net.ResetCounters()
	s := m.DS.Train[0]
	net.TrainSample(s.Image.Data, s.Label)
	biasIO := net.Counters().HostTransactions
	activePix := 0
	for _, v := range s.Image.Data {
		if v > 0.05 {
			activePix++
		}
	}
	directIO := activePix * 64 / 2 // one insertion per input spike, mean rate ~x/2
	fmt.Printf("\nhost I/O per training sample (§III-D):\n")
	fmt.Printf("  bias-driven input coding: %d transactions\n", biasIO)
	fmt.Printf("  direct spike insertion:   ~%d transactions (%d active pixels x rate x T)\n",
		directIO, activePix)

	if *showRaster {
		// Record one full two-phase training sample: label onset and the
		// error channels' phase-2 activity are visible in the raster.
		rec := raster.NewRecorder()
		rec.Tap("output layer", net.Forward(net.NumForward()-1))
		rec.Tap("label neurons", net.Label())
		pos, neg := net.ErrOut()
		rec.Tap("error+ channel", pos)
		rec.Tap("error- channel", neg)
		net.Mesh().OnStep = rec.Observe
		net.TrainSample(s.Image.Data, s.Label)
		net.Mesh().OnStep = nil
		fmt.Printf("\nspike raster of one training sample (label %d; steps 0..%d phase 1, then phase 2):\n",
			s.Label, 63)
		fmt.Print(rec.String())
	}
}
