package experiments

import (
	"fmt"
	"io"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/rng"
	"emstdp/internal/stream"
)

// AdaptationResult measures the §I claim that in-hardware learning
// compensates device variation: after synaptic drift is injected into a
// trained on-chip network, a frozen deployment stays degraded while a
// deployment that keeps learning online recovers.
type AdaptationResult struct {
	// BeforeDrift is the trained network's accuracy.
	BeforeDrift float64
	// AfterDrift is the accuracy immediately after weight drift.
	AfterDrift float64
	// FrozenAfterStream is the drifted network's accuracy after the
	// recovery stream with learning DISABLED (what an offline-trained
	// deployment experiences).
	FrozenAfterStream float64
	// AdaptedAfterStream is the drifted network's accuracy after
	// continuing EMSTDP online learning on the same stream.
	AdaptedAfterStream float64
	// DriftSD is the injected drift in weight-mantissa units.
	DriftSD float64
}

// Adaptation trains an on-chip MNIST model, injects synaptic drift into
// every plastic layer, and compares a frozen deployment against one that
// keeps learning online over the same recovery stream.
func Adaptation(sc Scale, driftSD float64, seed uint64, progress io.Writer) (*AdaptationResult, error) {
	build := func() (*core.Model, error) {
		return core.Build(core.Options{
			Dataset:        dataset.MNIST,
			Backend:        core.Chip,
			TrainSamples:   sc.TrainSamples,
			TestSamples:    sc.TestSamples,
			PretrainEpochs: sc.PretrainEpochs,
			Seed:           seed,
			Trace:          sc.Trace,
		})
	}
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}

	// Two identical models trained identically: one will freeze after
	// drift, the other keeps learning. (Training both from scratch keeps
	// them bit-identical without a deep-copy API.)
	frozen, err := build()
	if err != nil {
		return nil, err
	}
	adapted, err := build()
	if err != nil {
		return nil, err
	}
	frozen.Train(sc.Epochs)
	adapted.Train(sc.Epochs)
	res := &AdaptationResult{DriftSD: driftSD, BeforeDrift: adapted.Evaluate().Accuracy()}
	logf("adaptation: trained accuracy %.1f%%\n", res.BeforeDrift*100)

	// Inject identical drift into both (same RNG seed).
	for _, m := range []*core.Model{frozen, adapted} {
		r := rng.New(seed + 99)
		net := m.ChipNetwork()
		for i := 0; i < net.NumPlasticLayers(); i++ {
			net.Plastic(i).PerturbWeights(r.Split(), driftSD)
		}
	}
	res.AfterDrift = adapted.Evaluate().Accuracy()
	logf("adaptation: after drift (sd=%.0f mantissa units) %.1f%%\n", driftSD, res.AfterDrift*100)

	// Recovery stream: the same online data, one epoch in storage order.
	// The frozen model only observes (inference); the adapted model
	// trains.
	if _, err := adapted.Group().TrainStream(stream.NewSliceSource(adapted.TrainFeatures()), 1); err != nil {
		return nil, fmt.Errorf("adaptation recovery stream: %w", err)
	}
	res.FrozenAfterStream = frozen.Evaluate().Accuracy()
	res.AdaptedAfterStream = adapted.Evaluate().Accuracy()
	logf("adaptation: frozen %.1f%%, adapted %.1f%%\n",
		res.FrozenAfterStream*100, res.AdaptedAfterStream*100)
	return res, nil
}

// PrintAdaptation renders the comparison.
func PrintAdaptation(w io.Writer, res *AdaptationResult) {
	fmt.Fprintln(w, "ADAPTATION: in-hardware learning vs device drift (§I)")
	fmt.Fprintf(w, "  trained accuracy:              %5.1f%%\n", res.BeforeDrift*100)
	fmt.Fprintf(w, "  after synaptic drift (sd=%.0f):  %5.1f%%\n", res.DriftSD, res.AfterDrift*100)
	fmt.Fprintf(w, "  frozen deployment afterwards:  %5.1f%%\n", res.FrozenAfterStream*100)
	fmt.Fprintf(w, "  online-learning deployment:    %5.1f%%\n", res.AdaptedAfterStream*100)
	fmt.Fprintf(w, "  recovery from continued in-hardware learning: %+.1f points\n",
		(res.AdaptedAfterStream-res.FrozenAfterStream)*100)
}
