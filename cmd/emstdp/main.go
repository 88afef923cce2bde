// Command emstdp trains an EMSTDP network online on one of the synthetic
// evaluation datasets and reports its accuracy:
//
//	emstdp -dataset mnist -backend chip -mode dfa -epochs 2
//
// The conv front end is pretrained offline and frozen; the dense layers
// learn online, sample by sample (batch size 1), exactly as on the
// neuromorphic processor.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
)

func main() {
	dsName := flag.String("dataset", "mnist", "dataset: mnist, fashion, cifar10, mstar")
	backend := flag.String("backend", "chip", "backend: chip (Loihi simulator) or fp (full precision)")
	mode := flag.String("mode", "dfa", "feedback mode: fa or dfa")
	epochs := flag.Int("epochs", 2, "online training epochs")
	train := flag.Int("train", 2000, "training samples")
	test := flag.Int("test", 500, "test samples")
	hidden := flag.Int("hidden", 100, "hidden layer width")
	perCore := flag.Int("neurons-per-core", 10, "chip mapping knob")
	convOnChip := flag.Bool("conv-on-chip", false, "map the frozen conv stack as spiking populations (slower, chip only)")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	opts := core.Options{
		Hidden:         []int{*hidden},
		TrainSamples:   *train,
		TestSamples:    *test,
		NeuronsPerCore: *perCore,
		ConvOnChip:     *convOnChip,
		Seed:           *seed,
	}
	kind, err := dataset.ParseKind(*dsName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Dataset = kind
	switch *backend {
	case "chip":
		opts.Backend = core.Chip
	case "fp":
		opts.Backend = core.FP
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backend)
		os.Exit(2)
	}
	switch *mode {
	case "fa":
		opts.Mode = emstdp.FA
	case "dfa":
		opts.Mode = emstdp.DFA
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	start := time.Now()
	m, err := core.Build(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dataset %v, backend %v, mode %v, net %d-%d-%d\n",
		opts.Dataset, opts.Backend, opts.Mode, m.Conv.OutSize(), *hidden, m.DS.NumClasses)
	fmt.Printf("offline conv pretraining accuracy: %.1f%%\n", m.PretrainAccuracy*100)
	if net := m.ChipNetwork(); net != nil {
		fmt.Printf("chip deployment: %d cores, %d plastic synapses\n",
			net.CoresUsed(), net.NumPlasticSynapses())
	}

	for e := 1; e <= *epochs; e++ {
		m.TrainEpoch()
		acc := m.Evaluate().Accuracy()
		fmt.Printf("epoch %d: test accuracy %.1f%% (%s elapsed)\n", e, acc*100,
			time.Since(start).Round(time.Second))
	}

	cm := m.Evaluate()
	fmt.Println("per-class accuracy:")
	for c, a := range cm.ClassAccuracy() {
		if a >= 0 {
			fmt.Printf("  class %d: %.1f%%\n", c, a*100)
		}
	}
}
