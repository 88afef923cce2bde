// Command loihi-info reports how an EMSTDP network maps onto the
// simulated chip: the placement the chip runs (Operation Flow 1: each
// population's size, packing, die and cores, in netlist build order),
// the realised core occupancy, and the host-I/O cost of the
// bias-driven input coding versus direct spike insertion (§III-D).
//
//	loihi-info -dataset mnist -mode dfa -neurons-per-core 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/loihi"
	"emstdp/internal/raster"
)

// usageError is a bad flag value; main exits 2 on it, as flag does.
type usageError struct{ error }

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, builds the conv-on-chip network and writes the
// report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("loihi-info", flag.ExitOnError)
	dsName := fs.String("dataset", "mnist", "dataset: mnist, fashion, cifar10, mstar")
	mode := fs.String("mode", "dfa", "feedback mode: fa or dfa")
	perCore := fs.Int("neurons-per-core", 10, "dense-part packing")
	hidden := fs.Int("hidden", 100, "hidden layer width")
	showRaster := fs.Bool("raster", false, "print a spike raster of one two-phase training sample")
	fs.Parse(args)

	kind, err := dataset.ParseKind(*dsName)
	if err != nil {
		return usageError{err}
	}
	fbMode, err := emstdp.ParseFeedbackMode(*mode)
	if err != nil {
		return usageError{err}
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
		return fmt.Errorf("build: %w", err)
	}
	net := m.ChipNetwork()
	hw := loihi.DefaultHardware()

	c, h, wd := dataset.Shape(kind)
	fmt.Fprintf(w, "network: %dx%dx%d - 5x5k16c2s - 3x3k8c2s - %dd - %dd (%v feedback)\n",
		wd, h, c, *hidden, m.DS.NumClasses, fbMode)
	fmt.Fprintf(w, "chip: %d cores, %d compartments/core, %d synapses/core\n\n",
		hw.NumCores, hw.MaxCompartmentsPerCore, hw.MaxSynapsesPerCore)

	// The Operation Flow 1 placement the chip runs, one row per shard.
	fmt.Fprintln(w, "placement (netlist build order):")
	fmt.Fprintf(w, "  %-10s %-8s %-7s %-4s %-11s %s\n", "population", "neurons", "n/core", "die", "first core", "cores")
	for _, pl := range net.PartitionPlan().Pops {
		for _, s := range pl.Shards {
			fmt.Fprintf(w, "  %-10s %-8d %-7d %-4d %-11d %d\n", pl.Name, s.Hi-s.Lo, s.PerCore, s.Die, s.FirstCore, s.Cores)
		}
	}

	fmt.Fprintf(w, "\nrealised deployment (forward + error paths):\n")
	fmt.Fprintf(w, "  cores used:            %d\n", net.CoresUsed())
	fmt.Fprintf(w, "  busiest core:          %d compartments\n", net.MaxNeuronsPerCore())
	fmt.Fprintf(w, "  busiest plastic core:  %d compartments\n", net.MaxPlasticNeuronsPerCore())
	fmt.Fprintf(w, "  plastic synapses:      %d\n", net.NumPlasticSynapses())

	occ := net.Mesh().Die(0).CoreOccupancy()
	fmt.Fprintf(w, "  occupancy histogram (compartments per core):\n")
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
			fmt.Fprintf(w, "    %s: %d cores\n", k, buckets[k])
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
	fmt.Fprintf(w, "\nhost I/O per training sample (§III-D):\n")
	fmt.Fprintf(w, "  bias-driven input coding: %d transactions\n", biasIO)
	fmt.Fprintf(w, "  direct spike insertion:   ~%d transactions (%d active pixels x rate x T)\n",
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
		fmt.Fprintf(w, "\nspike raster of one training sample (label %d; steps 0..%d phase 1, then phase 2):\n",
			s.Label, 63)
		fmt.Fprint(w, rec.String())
	}
	return nil
}
