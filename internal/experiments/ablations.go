package experiments

import (
	"fmt"
	"io"
	"sync"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/metrics"
)

// AblationResult is one accuracy measurement of a design-choice sweep.
type AblationResult struct {
	Study    string // which knob
	Value    string // the knob's setting
	Accuracy float64
}

// buildFeatures builds a shared feature extraction front end for the
// ablations so every variant sees identical inputs.
func buildFeatures(sc Scale, seed uint64) (*core.Model, error) {
	return core.Build(core.Options{
		Dataset:        dataset.MNIST,
		Backend:        core.FP,
		TrainSamples:   sc.TrainSamples,
		TestSamples:    sc.TestSamples,
		PretrainEpochs: sc.PretrainEpochs,
		Seed:           seed,
	})
}

// runVariant trains a fresh reference network with cfg on the shared
// feature splits and returns its test accuracy.
func runVariant(trainFeat, testFeat []metrics.Sample, cfg emstdp.Config, epochs int) float64 {
	net := emstdp.New(cfg)
	for e := 0; e < epochs; e++ {
		for _, s := range trainFeat {
			net.TrainSample(s.X, s.Y)
		}
	}
	correct := 0
	for _, s := range testFeat {
		if net.Predict(s.X) == s.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(testFeat))
}

// variantSpec is one ablation variant: a study/value label plus the
// config delta it applies to the shared baseline. Specs are static —
// independent of the realized model — so both the flat and the
// orchestrated sweep build identical configs from them.
type variantSpec struct {
	study, value string
	apply        func(cfg *emstdp.Config)
}

// ablationVariants enumerates the design-choice sweep.
func ablationVariants() []variantSpec {
	var variants []variantSpec

	// h′ gating (the multi-compartment AND, §III-A).
	for _, gate := range []bool{true, false} {
		gate := gate
		variants = append(variants, variantSpec{"gate", fmt.Sprintf("%v", gate),
			func(cfg *emstdp.Config) { cfg.GateHidden = gate }})
	}

	// Phase length T (§IV-A2): throughput scales 1/T, quality rises
	// with T as rates quantize more finely.
	for _, T := range []int{16, 32, 64, 128} {
		T := T
		variants = append(variants, variantSpec{"phaseLen", fmt.Sprintf("T=%d", T),
			func(cfg *emstdp.Config) { cfg.T = T }})
	}

	// Weight precision: k-bit grids with stochastic rounding; 0 = full
	// precision. The chip is fixed at 8.
	for _, bits := range []int{4, 6, 8, 0} {
		bits := bits
		name := fmt.Sprintf("%d-bit", bits)
		if bits == 0 {
			name = "float64"
		}
		variants = append(variants, variantSpec{"precision", name,
			func(cfg *emstdp.Config) { cfg.QuantBits = bits }})
	}

	// Feedback mode on identical features.
	for _, mode := range []emstdp.FeedbackMode{emstdp.FA, emstdp.DFA} {
		mode := mode
		variants = append(variants, variantSpec{"feedback", mode.String(),
			func(cfg *emstdp.Config) { cfg.Mode = mode }})
	}
	return variants
}

// ablationBaseConfig is the shared baseline every variant's delta is
// applied to: the reference network over the realized feature geometry.
func ablationBaseConfig(featDim, classes int, seed uint64) emstdp.Config {
	cfg := emstdp.DefaultConfig(featDim, 100, classes)
	cfg.Seed = seed + 3
	return cfg
}

// Ablations sweeps the paper's design choices on the MNIST task: the h′
// gate, the phase length T (§IV-A2's quality/throughput trade), and the
// synaptic weight precision (the source of the paper's Loihi-vs-FP
// accuracy gap). Variants train fresh networks against the
// shared (read-only) feature split, so the sweep shards variant-per-
// worker through the engine pool.
func Ablations(sc Scale, seed uint64, progress io.Writer) ([]AblationResult, error) {
	if sc.Orchestrate {
		return ablationsGraph(sc, seed, progress)
	}
	m, err := buildFeatures(sc, seed)
	if err != nil {
		return nil, err
	}
	variants := ablationVariants()
	results := make([]AblationResult, len(variants))
	var mu sync.Mutex
	_ = mapGrid(sc.pool(), len(variants), func(i int) error {
		v := variants[i]
		cfg := ablationBaseConfig(m.Conv.OutSize(), m.DS.NumClasses, seed)
		v.apply(&cfg)
		acc := runVariant(m.TrainFeatures(), m.TestFeatures(), cfg, sc.Epochs)
		results[i] = AblationResult{Study: v.study, Value: v.value, Accuracy: acc}
		if progress != nil {
			mu.Lock()
			fmt.Fprintf(progress, "ablation %-12s %-6s %.1f%%\n", v.study, v.value, acc*100)
			mu.Unlock()
		}
		return nil
	})
	return results, nil
}

// PrintAblations renders the sweep grouped by study.
func PrintAblations(w io.Writer, results []AblationResult) {
	fmt.Fprintln(w, "ABLATIONS (MNIST, full-precision reference, shared features)")
	last := ""
	for _, r := range results {
		if r.Study != last {
			fmt.Fprintf(w, "%s:\n", r.Study)
			last = r.Study
		}
		fmt.Fprintf(w, "  %-10s %.1f%%\n", r.Value, r.Accuracy*100)
	}
}
