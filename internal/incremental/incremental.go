// Package incremental implements the paper's incremental online learning
// protocol (§IV-B, Fig 4): a deployed network learns new classes from a
// stream while retaining old ones, with an alternating two-step schedule
// per round:
//
//	step 1 (learn new): only new-class samples arrive; the old classes'
//	   classifier neurons are disabled and the learning rate reduced —
//	   the paper's approximation of the cross-distillation loss that
//	   limits catastrophic forgetting;
//	step 2 (retrain): the new samples are replayed together with an
//	   equal-sized sample of old-class data drawn from a pool that also
//	   contains new observations of the old classes.
//
// New classes are introduced in chunks over several rounds, which is what
// produces Fig 4's drop-then-recover shape at each introduction point.
package incremental

import (
	"fmt"

	"emstdp/internal/metrics"
	"emstdp/internal/rng"
)

// Learner is the trainable model under test. Both the full-precision
// EMSTDP network and the on-chip network satisfy it.
type Learner interface {
	TrainSample(x []float64, label int)
	Predict(x []float64) int
	// SetOutputDisabled freezes and silences the given output classes.
	SetOutputDisabled(disabled []bool)
	// EnableAllOutputs clears the disabled mask.
	EnableAllOutputs()
	// SetLRReduced toggles the reduced learning rate used in step 1.
	SetLRReduced(reduced bool)
}

// trainFrom trains the learner on already-ordered samples, in order.
func trainFrom(l Learner, samples []metrics.Sample) {
	for _, s := range samples {
		l.TrainSample(s.X, s.Y)
	}
}

// Config parameterises the protocol.
type Config struct {
	// NumClasses is the total class count (output width).
	NumClasses int
	// Initial lists the classes pretrained before deployment (the paper
	// uses 4 randomly selected MNIST classes).
	Initial []int
	// Increments lists successive class-set additions (the paper adds 2
	// classes, three times).
	Increments [][]int
	// Rounds is the number of chunks each increment's data is spread
	// over (the paper uses 5).
	Rounds int
	// PretrainEpochs is the number of passes over the initial classes.
	PretrainEpochs int
	// Seed drives shuffling and old-class sampling.
	Seed uint64
}

// DefaultConfig returns the paper's protocol: pretrain 4 classes, then
// three increments of 2 classes over 5 rounds each.
func DefaultConfig(seed uint64) Config {
	return Config{
		NumClasses:     10,
		Initial:        []int{0, 1, 2, 3},
		Increments:     [][]int{{4, 5}, {6, 7}, {8, 9}},
		Rounds:         5,
		PretrainEpochs: 2,
		Seed:           seed,
	}
}

// RoundResult is one x-axis point of Fig 4.
type RoundResult struct {
	// Round is the global round index; round 0 is the pretrain point.
	Round int
	// NewClassesIntroduced marks the first round of an increment (the
	// green dotted lines of Fig 4).
	NewClassesIntroduced bool
	// AfterStep1 and AfterStep2 are accuracies over all observed classes
	// measured on the test set after each protocol step.
	AfterStep1, AfterStep2 float64
	// Observed lists the classes seen so far.
	Observed []int
}

// Run executes the protocol and returns one RoundResult per round
// (including the round-0 pretrain point).
func Run(l Learner, train, test []metrics.Sample, cfg Config) ([]RoundResult, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("incremental: Rounds must be positive")
	}
	if len(cfg.Initial) == 0 {
		return nil, fmt.Errorf("incremental: need at least one initial class")
	}
	r := rng.New(cfg.Seed)

	byClass := make(map[int][]metrics.Sample)
	for _, s := range train {
		byClass[s.Y] = append(byClass[s.Y], s)
	}

	observed := append([]int(nil), cfg.Initial...)
	evalObserved := func() float64 {
		cm := metrics.Evaluate(l, test, cfg.NumClasses)
		return cm.SubsetAccuracy(observed)
	}

	// Pretrain on the initial classes.
	var pretrain []metrics.Sample
	for _, c := range cfg.Initial {
		pretrain = append(pretrain, byClass[c]...)
	}
	for e := 0; e < cfg.PretrainEpochs; e++ {
		r.Shuffle(len(pretrain), func(i, j int) { pretrain[i], pretrain[j] = pretrain[j], pretrain[i] })
		trainFrom(l, pretrain)
	}
	acc0 := evalObserved()
	results := []RoundResult{{
		Round: 0, AfterStep1: acc0, AfterStep2: acc0,
		Observed: append([]int(nil), observed...),
	}}

	// oldPool accumulates old-class data, including "new observations of
	// old classes": each increment re-draws from the full class data, so
	// replay is not limited to what pretraining saw.
	round := 0
	for _, newClasses := range cfg.Increments {
		// Chunk each new class's samples over the rounds.
		chunks := make([][]metrics.Sample, cfg.Rounds)
		for _, c := range newClasses {
			samples := append([]metrics.Sample(nil), byClass[c]...)
			r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
			for i, s := range samples {
				chunks[i*cfg.Rounds/len(samples)] = append(chunks[i*cfg.Rounds/len(samples)], s)
			}
		}
		var oldPool []metrics.Sample
		for _, c := range observed {
			oldPool = append(oldPool, byClass[c]...)
		}

		oldMask := make([]bool, cfg.NumClasses)
		for _, c := range observed {
			oldMask[c] = true
		}
		observed = append(observed, newClasses...)

		for rd := 0; rd < cfg.Rounds; rd++ {
			round++
			chunk := append([]metrics.Sample(nil), chunks[rd]...)
			r.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })

			// Step 1: learn the new classes with old outputs disabled
			// and reduced LR (cross-distillation approximation).
			l.SetOutputDisabled(oldMask)
			l.SetLRReduced(true)
			trainFrom(l, chunk)
			l.EnableAllOutputs()
			l.SetLRReduced(false)
			after1 := evalObserved()

			// Step 2: replay the chunk mixed with an equal-sized sample
			// of old-class data.
			mix := append([]metrics.Sample(nil), chunk...)
			for i := 0; i < len(chunk) && len(oldPool) > 0; i++ {
				mix = append(mix, oldPool[r.Intn(len(oldPool))])
			}
			r.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
			trainFrom(l, mix)
			after2 := evalObserved()

			results = append(results, RoundResult{
				Round:                round,
				NewClassesIntroduced: rd == 0,
				AfterStep1:           after1,
				AfterStep2:           after2,
				Observed:             append([]int(nil), observed...),
			})
		}
	}
	return results, nil
}

// Baseline trains a fresh learner on all classes jointly for epochs
// passes and returns its test accuracy — Fig 4's flat reference line.
func Baseline(l Learner, train, test []metrics.Sample, numClasses, epochs int, seed uint64) float64 {
	r := rng.New(seed)
	samples := append([]metrics.Sample(nil), train...)
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		trainFrom(l, samples)
	}
	return metrics.Evaluate(l, test, numClasses).Accuracy()
}
