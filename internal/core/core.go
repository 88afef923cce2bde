// Package core is the high-level public API of the reproduction: it wires
// the synthetic datasets, offline conv pretraining, and the two EMSTDP
// backends — the full-precision reference ("Python (FP)" in the paper)
// and the Loihi-class on-chip implementation — behind one Model type.
//
// A Model is the paper's experimental unit: the network
// W×H×C − 5×5k×16c2s − 3×3k×8c2s − 100d − 10d with the conv layers
// pretrained offline and frozen, and the dense layers trained online,
// sample by sample, with EMSTDP.
//
// Quick start:
//
//	m, err := core.Build(core.Options{Dataset: dataset.MNIST})
//	m.Train(1)
//	fmt.Println(m.Evaluate().Accuracy())
package core

import (
	"fmt"
	"runtime"

	"emstdp/internal/ann"
	"emstdp/internal/chipnet"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/engine"
	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
	"emstdp/internal/tensor"
	"emstdp/internal/trace"
)

// Backend selects the execution substrate.
type Backend int

const (
	// FP is the full-precision software reference (float64 weights,
	// identical spiking dynamics) — the paper's "Python" columns.
	FP Backend = iota
	// Chip runs on the Loihi-class simulator: 8-bit synapses, integer
	// state, the eq (12) learning engine, core mapping — the
	// paper's "Loihi" columns.
	Chip
)

// String names the backend as the paper's tables do.
func (b Backend) String() string {
	if b == Chip {
		return "Loihi"
	}
	return "Python (FP)"
}

// Options configures a Model. Zero values select the paper's defaults.
type Options struct {
	// Dataset picks the evaluation task.
	Dataset dataset.Kind
	// Backend picks FP or Chip.
	Backend Backend
	// Mode picks FA or DFA feedback (default DFA).
	Mode emstdp.FeedbackMode
	// Hidden lists hidden dense layer sizes (default: the paper's 100).
	Hidden []int
	// T is the phase length (default 64).
	T int
	// TrainSamples / TestSamples size the generated dataset (defaults
	// 2000 / 500).
	TrainSamples, TestSamples int
	// PretrainEpochs configures offline conv pretraining (default 3).
	PretrainEpochs int
	// NeuronsPerCore is the chip mapping knob (default 10; chip backend
	// only).
	NeuronsPerCore int
	// Chips is the number of simulated dies on the chip backend's mesh
	// (default 1). Values > 1 shard the netlist across the dies —
	// results stay bit-identical to the single-die deployment at the
	// same seed, with cross-die spikes accounted as mesh traffic.
	Chips int
	// PartitionStrategy names the sharding strategy: "population"
	// (default; whole populations, least-loaded die), "range" (every
	// population split across all dies) or "traffic" (whole populations
	// co-located with their declared peers to cut cross-die spikes).
	// Chip backend only; on one die every strategy places the
	// populations in build order.
	PartitionStrategy string
	// Topology names the board's NoC arrangement: "line" (default),
	// "mesh" or "torus", with automatic radix factorisation. Topology
	// changes traffic, link occupancy and modeled latency only — never
	// results. Chip backend only; one die has no links.
	Topology string
	// ConvOnChip additionally maps the frozen conv stack as spiking
	// populations (chip backend only). When false, conv features are
	// computed off-chip and programmed as input biases; accuracy is
	// equivalent, runtime much lower, so experiments that only need the
	// dense part's learning behaviour use false.
	ConvOnChip bool
	// Workers is the engine worker-pool width for Evaluate. 0 or 1 (the
	// default) is fully sequential; negative selects GOMAXPROCS.
	// Training is the paper's online protocol and always runs on the
	// master. Results are bit-identical across widths at a fixed seed:
	// evaluation is sharded over weight-synchronised replicas.
	Workers int
	// Seed drives every random choice (default 1).
	Seed uint64
	// Trace, when set, records the run's timeline onto the shared
	// tracer: engine pool-worker chunk spans and the chip mesh's
	// per-step sub-phase spans land on its tracks (export with
	// trace.Tracer.WriteChromeTrace). Purely observational — results are
	// bit-identical with and without a tracer attached — and excluded
	// from stage canonicalisation, so attaching one never invalidates
	// sweep caches. Nil (the default) records nothing.
	Trace *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Hidden == nil {
		o.Hidden = []int{100}
	}
	if o.T == 0 {
		o.T = 64
	}
	if o.TrainSamples == 0 {
		o.TrainSamples = 2000
	}
	if o.TestSamples == 0 {
		o.TestSamples = 500
	}
	if o.PretrainEpochs == 0 {
		o.PretrainEpochs = 3
	}
	if o.NeuronsPerCore == 0 {
		o.NeuronsPerCore = 10
	}
	if o.Chips == 0 {
		o.Chips = 1
	}
	if o.Workers == 0 {
		o.Workers = 1
	} else if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Model is a ready-to-train EMSTDP system: dataset, frozen conv features
// and a trainable dense network on the selected backend.
type Model struct {
	Opts Options

	DS   *dataset.Dataset
	Conv *ann.ConvStack
	// PretrainAccuracy is the offline model's training accuracy, a
	// sanity signal for the frozen features.
	PretrainAccuracy float64

	fp   *emstdp.Network
	chip *chipnet.Network

	trainFeat []metrics.Sample
	testFeat  []metrics.Sample
	shuffler  *rng.Source

	// grp lazily binds the backend to the engine's worker pool; built on
	// the first Train/Evaluate.
	grp *engine.Group
}

// Build generates the dataset, pretrains and calibrates the conv stack,
// and constructs the backend network. It is exactly
// BuildFrom(Realize(opts), opts): sweeps that share the realization
// prefix across cells use the two stages separately.
func Build(opts Options) (*Model, error) {
	opts = opts.withDefaults()
	return BuildFrom(Realize(opts), opts)
}

// buildBackend constructs the backend network for m.Opts over the
// already-populated dataset/conv fields (Seed+3 drives the backend RNG).
func (m *Model) buildBackend() error {
	opts := m.Opts
	sizes := append([]int{m.Conv.OutSize()}, opts.Hidden...)
	sizes = append(sizes, m.DS.NumClasses)

	switch opts.Backend {
	case FP:
		cfg := emstdp.DefaultConfig(sizes...)
		cfg.T = opts.T
		cfg.Mode = opts.Mode
		cfg.Seed = opts.Seed + 3
		m.fp = emstdp.New(cfg)
	case Chip:
		cfg := chipnet.DefaultConfig(sizes...)
		cfg.T = opts.T
		cfg.Mode = opts.Mode
		cfg.Seed = opts.Seed + 3
		cfg.NeuronsPerCore = opts.NeuronsPerCore
		cfg.Chips = opts.Chips
		strategy, err := mapping.ParseStrategy(opts.PartitionStrategy)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		cfg.Partition = strategy
		kind, err := loihi.ParseTopologyKind(opts.Topology)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		cfg.Topology = loihi.Topology{Kind: kind}
		cfg.Trace = opts.Trace
		if opts.ConvOnChip {
			m.chip, err = chipnet.NewWithConv(cfg, m.Conv, m.DS.C, m.DS.H, m.DS.W)
		} else {
			m.chip, err = chipnet.New(cfg)
		}
		if err != nil {
			return fmt.Errorf("core: building chip network: %w", err)
		}
	default:
		return fmt.Errorf("core: unknown backend %d", opts.Backend)
	}
	return nil
}

// featurize maps raw samples to normalised feature-rate samples.
func (m *Model) featurize(in []dataset.Sample) []metrics.Sample {
	return featurizeWith(m.Conv, in)
}

// Features returns the frozen normalised conv features for an image.
func (m *Model) Features(img *tensor.Tensor) []float64 {
	return m.Conv.NormalizedRates(img)
}

// TrainSample runs one online EMSTDP update (features in, label in).
// Implements incremental.Learner.
func (m *Model) TrainSample(x []float64, label int) {
	if m.fp != nil {
		m.fp.TrainSample(x, label)
		return
	}
	m.chip.TrainSample(x, label)
}

// Predict classifies a feature vector. Implements incremental.Learner.
func (m *Model) Predict(x []float64) int {
	if m.fp != nil {
		return m.fp.Predict(x)
	}
	return m.chip.Predict(x)
}

// SetOutputDisabled forwards to the backend (incremental protocol).
func (m *Model) SetOutputDisabled(disabled []bool) {
	if m.fp != nil {
		m.fp.SetOutputDisabled(disabled)
		return
	}
	m.chip.SetOutputDisabled(disabled)
}

// EnableAllOutputs forwards to the backend.
func (m *Model) EnableAllOutputs() {
	if m.fp != nil {
		m.fp.EnableAllOutputs()
		return
	}
	m.chip.EnableAllOutputs()
}

// SetLRReduced forwards to the backend.
func (m *Model) SetLRReduced(reduced bool) {
	if m.fp != nil {
		m.fp.SetLRReduced(reduced)
		return
	}
	m.chip.SetLRReduced(reduced)
}

// Runner returns the backend as the engine's execution contract.
func (m *Model) Runner() engine.Runner {
	if m.fp != nil {
		return m.fp
	}
	return m.chip
}

// Group returns the engine replica group driving Evaluate and weight
// snapshots, building it (and its worker pool) on first use.
func (m *Model) Group() *engine.Group {
	if m.grp == nil {
		m.grp = engine.NewGroup(m.Runner(), engine.NewPool(m.Opts.Workers))
		if m.Opts.Trace != nil {
			m.grp.SetTracer(m.Opts.Trace)
		}
	}
	return m.grp
}

// Close releases the released snapshot replicas a model may hold. Safe
// (and a no-op) on a model that never cut a snapshot; sweep harnesses
// and the serving layer's tenant-delete path close each model when done
// with it.
func (m *Model) Close() {
	if m.grp != nil {
		m.grp.Close()
	}
}

// backendSamples returns the training or test split in the encoding the
// backend consumes: raw pixels when the conv stack is mapped on-chip,
// cached conv features otherwise.
func (m *Model) backendSamples(train bool) []metrics.Sample {
	feat := m.testFeat
	raw := m.DS.Test
	if train {
		feat, raw = m.trainFeat, m.DS.Train
	}
	if m.chip == nil || !m.Opts.ConvOnChip {
		return feat
	}
	out := make([]metrics.Sample, len(raw))
	for i, s := range raw {
		out[i] = metrics.Sample{X: s.Image.Data, Y: s.Label}
	}
	return out
}

// TrainEpoch trains on the whole training split once, in a fresh random
// order: the paper's online protocol (batch size 1, no augmentation —
// §IV-A), one TrainSample per sample on the backend.
func (m *Model) TrainEpoch() {
	samples := m.backendSamples(true)
	for _, idx := range m.shuffler.Perm(len(samples)) {
		m.TrainSample(samples[idx].X, samples[idx].Y)
	}
}

// Train runs the given number of epochs.
func (m *Model) Train(epochs int) {
	for e := 0; e < epochs; e++ {
		m.TrainEpoch()
	}
}

// Evaluate classifies the test split and returns the confusion matrix.
// With Workers > 1 the split is sharded across weight-synchronised
// replicas; predictions are accumulated in sample order, so the matrix
// is bit-identical to the sequential pass.
func (m *Model) Evaluate() *metrics.Confusion {
	samples := m.backendSamples(false)
	cm, err := m.Group().Evaluate(samples, m.DS.NumClasses)
	if err != nil {
		// Replica construction can only fail on backend config errors
		// that Build would already have surfaced; a width-1 group
		// classifies on the master alone and cannot fail.
		cm, _ = engine.NewGroup(m.Runner(), nil).Evaluate(samples, m.DS.NumClasses)
	}
	return cm
}

// RefreshFeatures recomputes the cached featurised splits after the conv
// stack's parameters change (model loading overwrites them).
func (m *Model) RefreshFeatures() {
	m.trainFeat = m.featurize(m.DS.Train)
	m.testFeat = m.featurize(m.DS.Test)
}

// TrainFeatures and TestFeatures expose the featurised splits for
// protocol harnesses (incremental learning).
func (m *Model) TrainFeatures() []metrics.Sample { return m.trainFeat }

// TestFeatures returns the featurised test split.
func (m *Model) TestFeatures() []metrics.Sample { return m.testFeat }

// ChipNetwork returns the on-chip network (nil for the FP backend).
func (m *Model) ChipNetwork() *chipnet.Network { return m.chip }

// FPNetwork returns the reference network (nil for the chip backend).
func (m *Model) FPNetwork() *emstdp.Network { return m.fp }
