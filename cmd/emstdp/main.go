// Command emstdp trains an EMSTDP network online on one of the synthetic
// evaluation datasets and reports its accuracy:
//
//	emstdp -dataset mnist -backend chip -mode dfa -epochs 2
//
// The conv front end is pretrained offline and frozen; the dense layers
// learn online, sample by sample (batch size 1), exactly as on the
// neuromorphic processor. The report on stdout is deterministic; the
// wall-clock time per epoch goes to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
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

// run parses args, builds and trains the model and writes the report
// to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("emstdp", flag.ExitOnError)
	dsName := fs.String("dataset", "mnist", "dataset: mnist, fashion, cifar10, mstar")
	backend := fs.String("backend", "chip", "backend: chip (Loihi simulator, also loihi) or fp (full precision)")
	mode := fs.String("mode", "dfa", "feedback mode: fa or dfa")
	epochs := fs.Int("epochs", 2, "online training epochs")
	train := fs.Int("train", 2000, "training samples")
	test := fs.Int("test", 500, "test samples")
	hidden := fs.Int("hidden", 100, "hidden layer width")
	perCore := fs.Int("neurons-per-core", 10, "chip mapping knob")
	convOnChip := fs.Bool("conv-on-chip", false, "map the frozen conv stack as spiking populations (slower, chip only)")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)

	opts := core.Options{
		Hidden:         []int{*hidden},
		TrainSamples:   *train,
		TestSamples:    *test,
		NeuronsPerCore: *perCore,
		ConvOnChip:     *convOnChip,
		Seed:           *seed,
	}
	var err error
	if opts.Dataset, err = dataset.ParseKind(*dsName); err != nil {
		return usageError{err}
	}
	if opts.Backend, err = core.ParseBackend(*backend); err != nil {
		return usageError{err}
	}
	if opts.Mode, err = emstdp.ParseFeedbackMode(*mode); err != nil {
		return usageError{err}
	}

	start := time.Now()
	m, err := core.Build(opts)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	fmt.Fprintf(w, "dataset %v, backend %v, mode %v, net %d-%d-%d\n",
		opts.Dataset, opts.Backend, opts.Mode, m.Conv.OutSize(), *hidden, m.DS.NumClasses)
	fmt.Fprintf(w, "offline conv pretraining accuracy: %.1f%%\n", m.PretrainAccuracy*100)
	if net := m.ChipNetwork(); net != nil {
		fmt.Fprintf(w, "chip deployment: %d cores, %d plastic synapses\n",
			net.CoresUsed(), net.NumPlasticSynapses())
	}

	for e := 1; e <= *epochs; e++ {
		m.TrainEpoch()
		acc := m.Evaluate().Accuracy()
		fmt.Fprintf(w, "epoch %d: test accuracy %.1f%%\n", e, acc*100)
		fmt.Fprintf(os.Stderr, "epoch %d: %s elapsed\n", e, time.Since(start).Round(time.Second))
	}

	cm := m.Evaluate()
	fmt.Fprintln(w, "per-class accuracy:")
	for c, a := range cm.ClassAccuracy() {
		if a >= 0 {
			fmt.Fprintf(w, "  class %d: %.1f%%\n", c, a*100)
		}
	}
	return nil
}
