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
	"emstdp/internal/stream"
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
	// state, sum-of-products learning engine, core mapping — the
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
	// Chips is the number of simulated dies for the chip backend
	// (default 1). Values > 1 shard the netlist across a lock-step
	// multi-die mesh — results stay bit-identical to the single-die
	// deployment at the same seed, with cross-die spikes accounted as
	// mesh traffic.
	Chips int
	// PartitionStrategy names the multi-die sharding strategy:
	// "population" (default; whole populations, least-loaded die),
	// "range" (every population split across all dies) or "traffic"
	// (whole populations co-located with their declared peers to cut
	// cross-die spikes). Chip backend with Chips > 1 only.
	PartitionStrategy string
	// Topology names the multi-die board's NoC arrangement: "line"
	// (default), "mesh" or "torus", with automatic radix
	// factorisation. Topology changes traffic, link occupancy and
	// modeled latency only — never results. Chip backend with
	// Chips > 1 only.
	Topology string
	// ConvOnChip additionally maps the frozen conv stack as spiking
	// populations (chip backend only). When false, conv features are
	// computed off-chip and programmed as input biases; accuracy is
	// equivalent, runtime much lower, so experiments that only need the
	// dense part's learning behaviour use false.
	ConvOnChip bool
	// Workers is the engine worker-pool width for Train and Evaluate.
	// 0 or 1 (the default) is fully sequential; negative selects
	// GOMAXPROCS. Results are bit-identical across widths at a fixed
	// seed: evaluation is sharded over weight-synchronised replicas, and
	// batched training applies replica-computed updates on the master in
	// sample order.
	Workers int
	// Batch is the training mini-batch size. 1 (the default) is the
	// paper's online protocol (§IV-A) and runs sequentially regardless
	// of Workers. Batch > 1 computes each batch member's update from the
	// batch-start weights on pool replicas — a different (data-parallel)
	// protocol whose results depend on Batch but not on Workers.
	Batch int
	// Pipeline is the two-phase training pipeline depth. 0 or 1 (the
	// default) trains strictly online; a depth D >= 2 keeps D samples in
	// flight across D replicas (engine.Group.TrainPipelined), each
	// sample's two-phase pass running against one consistent weight
	// version that lags the online schedule by exactly D-1 updates.
	// Unlike Batch, every update is still computed from a single sample
	// and applied in sample order — bounded-lag batch-1 — and the
	// realized schedule depends on D alone, never on Workers. D = 2
	// overlaps phase 1 of sample k+1 with phase 2 of sample k for ~2×
	// online-training throughput. Takes precedence over Batch. Composes
	// with Stream: each epoch's order is realised through the streaming
	// ingestion pipeline first, then trained with the bounded-lag
	// schedule over that order.
	Pipeline int
	// Stream selects the streaming ingestion path for training: each
	// epoch pulls the split through a stream.ShuffleWindow (a bounded
	// reservoir re-ordering stage) and a bounded channel with watermark
	// backpressure instead of materialising a permutation. The realised
	// order is deterministic (seeded per epoch) but differs from the
	// non-streamed shuffle; for a fixed realised order the streamed
	// update sequence is bit-identical to the materialised one.
	Stream bool
	// StreamWindow is the shuffle-window size W (default 256; W = 1
	// replays the split in storage order). Memory spent on re-ordering
	// is bounded by W samples regardless of split size.
	StreamWindow int
	// AsyncEval makes TrainCurve snapshot the weights at each epoch
	// boundary and classify the test split in the background while the
	// next epoch trains, so accuracy curves cost near-zero wall clock.
	// Reported accuracies are identical to the synchronous path.
	AsyncEval bool
	// Seed drives every random choice (default 1).
	Seed uint64
	// Trace, when set, records the run's timeline onto the shared
	// tracer: engine pool-worker chunk spans, pipeline slot/coordinator
	// spans, streaming-channel watermark spans and the chip mesh's
	// per-step sub-phase spans all land on its tracks (export with
	// trace.Tracer.WriteChromeTrace). Purely observational — results
	// are bit-identical with and without a tracer attached — and
	// excluded from stage canonicalisation, so attaching one never
	// invalidates sweep caches. Nil (the default) records nothing.
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
	if o.Batch <= 0 {
		o.Batch = 1
	}
	if o.StreamWindow == 0 {
		o.StreamWindow = 256
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
	// the first parallel Train/Evaluate.
	grp *engine.Group

	// win is the persistent shuffle window of the streaming ingestion
	// path (Opts.Stream): it survives across epochs so Reset advances
	// the per-epoch seeded order; streamEpoch mirrors its position so a
	// rebuild after RefreshFeatures resumes rather than replaying epoch
	// 0. streamStats accumulates the ingestion counters of every
	// streamed epoch.
	win         *stream.ShuffleWindow
	streamEpoch uint64
	streamStats stream.Stats
	// stallHist and occHist are the streaming path's latency
	// histograms: per-stall producer wait (ns) and shuffle-window
	// occupancy at each emit. Built with the window on the first
	// streamed epoch.
	stallHist *metrics.Histogram
	occHist   *metrics.Histogram
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

// chipInput returns what the chip backend consumes for training sample i:
// raw pixels when the conv stack is mapped on-chip, features otherwise.
func (m *Model) chipInput(img *tensor.Tensor, feat []float64) []float64 {
	if m.Opts.ConvOnChip {
		return img.Data
	}
	return feat
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

// Group returns the engine replica group driving parallel Train and
// Evaluate, building it (and its worker pool) on first use.
func (m *Model) Group() *engine.Group {
	if m.grp == nil {
		m.grp = engine.NewGroup(m.Runner(), engine.NewPool(m.Opts.Workers))
		if m.Opts.Trace != nil {
			m.grp.SetTracer(m.Opts.Trace)
		}
	}
	return m.grp
}

// Close releases the background resources a model may hold — it joins
// an in-flight AsyncEvaluate pass (so no goroutine keeps reading the
// test split or the eval replica after Close returns), drops the eval
// and snapshot replicas, and stops the pipelined training path's
// persistent stage workers. Safe (and a no-op) on a model that never
// went parallel; sweep harnesses and the serving layer's tenant-delete
// path must close each model when done with it.
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

// TrainEpoch streams the whole training split once, in a fresh random
// order. With the default Batch=1 this is the paper's online protocol
// (batch size 1, no augmentation — §IV-A), executed sequentially on the
// backend. Batch > 1 shards each mini-batch's two-phase passes across
// the worker pool's replicas and applies the updates in sample order.
// Pipeline > 1 instead runs the bounded-lag two-phase pipeline: updates
// stay per-sample and in order, but each pass reads weights lagging
// exactly Pipeline-1 updates, so Pipeline passes overlap across
// replicas. With Opts.Stream the epoch's order comes from the streaming
// ingestion pipeline (shuffle window + bounded channel) instead of a
// materialised permutation.
func (m *Model) TrainEpoch() {
	if m.Opts.Stream {
		m.trainEpochStream()
		return
	}
	order := m.shuffler.Perm(len(m.trainFeat))
	if m.Opts.Pipeline > 1 {
		samples := m.backendSamples(true)
		if err := m.Group().TrainPipelined(samples, order, m.Opts.Pipeline); err != nil {
			// Replica construction can only fail on backend config errors
			// that Build would already have surfaced; fall back to the
			// online path rather than dropping the epoch.
			for _, idx := range order {
				m.TrainSample(samples[idx].X, samples[idx].Y)
			}
		}
		return
	}
	if m.Opts.Batch <= 1 {
		for _, idx := range order {
			if m.chip != nil && m.Opts.ConvOnChip {
				s := m.DS.Train[idx]
				m.chip.TrainSample(s.Image.Data, s.Label)
				continue
			}
			s := m.trainFeat[idx]
			m.TrainSample(s.X, s.Y)
		}
		return
	}
	samples := m.backendSamples(true)
	if err := m.Group().Train(samples, order, m.Opts.Batch); err != nil {
		// Replica construction can only fail on backend config errors
		// that Build would already have surfaced; fall back to the
		// online path rather than dropping the epoch.
		for _, idx := range order {
			m.TrainSample(samples[idx].X, samples[idx].Y)
		}
	}
}

// trainEpochStream pulls one epoch through the ingestion pipeline:
// split → shuffle window (per-epoch seeded order, memory bounded by
// Opts.StreamWindow) → bounded channel with watermark backpressure →
// engine.Group.TrainStream. The window persists across epochs so each
// Reset advances to the next deterministic order.
func (m *Model) trainEpochStream() {
	if m.win == nil {
		src := stream.NewSliceSource(m.backendSamples(true))
		// The window draws epoch e from rng.New(seed+e), so its seed
		// must sit far from the small Seed+k offsets the model's other
		// streams use (dataset Seed, pretrain Seed+1, shuffler Seed+2,
		// backend Seed+3, …) or some epoch's shuffle order would be
		// drawn from a stream bit-identical to the network's own
		// randomness. A golden-ratio offset keeps every epoch clear of
		// them.
		const streamSeedOffset = 0x9e3779b97f4a7c15
		m.win = stream.NewShuffleWindow(src, m.Opts.StreamWindow, m.Opts.Seed+streamSeedOffset)
		// A rebuild (RefreshFeatures) must not restart at epoch 0, or
		// the next pass would replay an already-trained order.
		m.win.SetEpoch(m.streamEpoch)
		m.stallHist = &metrics.Histogram{}
		m.occHist = &metrics.Histogram{}
		m.win.SetOccupancyHistogram(m.occHist)
	}
	ch := stream.NewChannelObserved(m.win, stream.DefaultWatermarks(), stream.Instrumentation{
		Tracer:    m.Opts.Trace,
		Name:      "channel",
		StallHist: m.stallHist,
	})
	if m.Opts.Pipeline > 1 {
		// Stream × Pipeline composition: realise this epoch's streamed
		// order through the full ingestion pipeline (so the order, the
		// window occupancy and the backpressure counters are identical
		// to the unpipelined streamed epoch), then run the bounded-lag
		// pipeline over the materialised order. The samples were already
		// resident — the channel hands out references — so the buffer
		// costs one slice of headers, not a copy of the data.
		var samples []metrics.Sample
		for {
			s, ok := ch.Next()
			if !ok {
				break
			}
			samples = append(samples, s)
		}
		order := make([]int, len(samples))
		for i := range order {
			order[i] = i
		}
		if err := m.Group().TrainPipelined(samples, order, m.Opts.Pipeline); err != nil {
			// Replica construction can only fail on backend config errors
			// Build would already have surfaced; finish the epoch online.
			for _, s := range samples {
				m.TrainSample(s.X, s.Y)
			}
		}
	} else if _, err := m.Group().TrainStream(ch, m.Opts.Batch); err != nil {
		// Replica construction can only fail on backend config errors
		// Build would already have surfaced; finish the epoch online
		// rather than dropping it.
		for {
			s, ok := ch.Next()
			if !ok {
				break
			}
			m.TrainSample(s.X, s.Y)
		}
	}
	ch.Stop()
	m.streamStats.Add(ch.Stats())
	m.win.Reset()
	m.streamEpoch = m.win.Epoch()
}

// StreamStats returns the cumulative ingestion counters accumulated by
// streamed training epochs (zero unless Opts.Stream is set).
func (m *Model) StreamStats() stream.Stats { return m.streamStats }

// StallHistogram returns the streaming producer's per-stall latency
// histogram (ns per watermark gate), nil until a streamed epoch ran.
func (m *Model) StallHistogram() *metrics.Histogram { return m.stallHist }

// OccupancyHistogram returns the shuffle window's occupancy-at-emit
// histogram, nil until a streamed epoch ran.
func (m *Model) OccupancyHistogram() *metrics.Histogram { return m.occHist }

// PublishStreamMetrics writes the streaming path's counters and
// histogram summaries into reg under prefix ("<prefix>.stalls",
// "<prefix>.stall_ns.p99", "<prefix>.occupancy.p50", …). No-op before
// the first streamed epoch or on a nil registry.
func (m *Model) PublishStreamMetrics(reg *metrics.Counters, prefix string) {
	m.streamStats.Publish(reg, prefix)
	m.stallHist.Publish(reg, prefix+".stall_ns")
	m.occHist.Publish(reg, prefix+".occupancy")
}

// Train runs the given number of epochs.
func (m *Model) Train(epochs int) {
	for e := 0; e < epochs; e++ {
		m.TrainEpoch()
	}
}

// TrainCurve trains for the given number of epochs and returns the test
// accuracy measured at every epoch boundary. With Opts.AsyncEval the
// boundary measurement is a weight snapshot classified in the
// background while the next epoch trains (engine.Group.AsyncEvaluate),
// so the curve costs near-zero wall clock on top of training; the
// accuracies are identical to the synchronous path because each
// snapshot is taken synchronously at its boundary.
func (m *Model) TrainCurve(epochs int) ([]float64, error) {
	accs := make([]float64, epochs)
	if !m.Opts.AsyncEval {
		for e := range accs {
			m.TrainEpoch()
			accs[e] = m.Evaluate().Accuracy()
		}
		return accs, nil
	}
	samples := m.backendSamples(false)
	pending := make([]*engine.AsyncEval, epochs)
	for e := 0; e < epochs; e++ {
		m.TrainEpoch()
		a, err := m.Group().AsyncEvaluate(samples, m.DS.NumClasses)
		if err != nil {
			return nil, err
		}
		pending[e] = a
	}
	for e, a := range pending {
		accs[e] = a.Wait().Accuracy()
	}
	return accs, nil
}

// Evaluate classifies the test split and returns the confusion matrix.
// With Workers > 1 the split is sharded across weight-synchronised
// replicas; predictions are accumulated in sample order, so the matrix
// is bit-identical to the sequential pass.
func (m *Model) Evaluate() *metrics.Confusion {
	samples := m.backendSamples(false)
	if m.Opts.Workers > 1 && len(samples) > 1 {
		if cm, err := m.Group().Evaluate(samples, m.DS.NumClasses); err == nil {
			return cm
		}
	}
	cm := metrics.NewConfusion(m.DS.NumClasses)
	for _, s := range samples {
		var pred int
		if m.chip != nil && m.Opts.ConvOnChip {
			pred = m.chip.Predict(s.X)
		} else {
			pred = m.Predict(s.X)
		}
		cm.Observe(s.Y, pred)
	}
	return cm
}

// RefreshFeatures recomputes the cached featurised splits after the conv
// stack's parameters change (model loading overwrites them).
func (m *Model) RefreshFeatures() {
	m.trainFeat = m.featurize(m.DS.Train)
	m.testFeat = m.featurize(m.DS.Test)
	// The streaming window replays a snapshot of the old features;
	// rebuild it lazily from the fresh ones.
	m.win = nil
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
