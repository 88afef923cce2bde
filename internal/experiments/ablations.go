package experiments

import (
	"fmt"
	"io"

	"emstdp/internal/emstdp"
	"emstdp/internal/metrics"
)

// AblationResult is one accuracy measurement of a design-choice sweep.
type AblationResult struct {
	Study    string // which knob
	Value    string // the knob's setting
	Accuracy float64
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
// independent of the realized model — so a variant's config depends on
// nothing but its label and the feature geometry.
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
