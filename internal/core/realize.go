package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"emstdp/internal/ann"
	"emstdp/internal/dataset"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
	"emstdp/internal/tensor"
)

// Realized is the backend-independent prefix of Build: the generated
// dataset, the pretrained + calibrated conv stack and the featurised
// splits. It depends only on the dataset/pretraining subset of Options
// (Dataset, TrainSamples, TestSamples, PretrainEpochs, Seed), so sweep
// cells differing only in backend, feedback mode, sharding or schedule
// knobs can be built from one shared Realized — the unit the sweep
// orchestrator content-addresses and caches.
//
// A Realized handed to several models is shared read-only: BuildFrom
// never re-runs the conv stack, and models built from it must not call
// RefreshFeatures concurrently (ConvStack.Forward uses internal
// scratch).
type Realized struct {
	DS               *dataset.Dataset
	Conv             *ann.ConvStack
	PretrainAccuracy float64
	// TrainFeat and TestFeat are the frozen normalised conv features of
	// the two splits, computed once here so no per-cell build touches the
	// conv stack again.
	TrainFeat, TestFeat []metrics.Sample
}

// Realize runs the dataset/pretraining prefix of Build for opts:
// generate the dataset (Seed), pretrain the conv stack (Seed+1),
// calibrate it on the first 64 training images, and featurise both
// splits. Only the realization subset of opts matters; every other
// field is ignored. It is exactly PretrainFrom(RealizeDataset(opts)) —
// the two halves are separate so a task graph can stage them.
func Realize(opts Options) *Realized {
	opts = opts.withDefaults()
	return PretrainFrom(RealizeDataset(opts), opts)
}

// Normalized returns opts with the paper's defaults filled in — the
// form a sweep orchestrator canonicalises, so that a zero field and its
// explicit default produce the same stage key.
func (o Options) Normalized() Options { return o.withDefaults() }

// RealizeDataset runs the first realization stage alone: generate the
// dataset split for the (Dataset, TrainSamples, TestSamples, Seed)
// subset of opts.
func RealizeDataset(opts Options) *dataset.Dataset {
	opts = opts.withDefaults()
	return dataset.Generate(opts.Dataset, opts.TrainSamples, opts.TestSamples, opts.Seed)
}

// PretrainFrom runs the second realization stage over an
// already-generated dataset: pretrain the conv stack (Seed+1, the
// PretrainEpochs subset of opts), calibrate it on the first 64 training
// images, and featurise both splits. The training split's features are
// the ones pretraining extracted for its accuracy pass, scaled to rates
// once calibration has fixed A2; only the test split runs the stack
// again.
func PretrainFrom(ds *dataset.Dataset, opts Options) *Realized {
	opts = opts.withDefaults()
	r := &Realized{DS: ds}
	var trainF []*tensor.Tensor
	r.Conv, r.PretrainAccuracy, trainF = ann.Pretrain(ds, ann.PretrainConfig{
		Epochs: opts.PretrainEpochs, LR: 0.01, Seed: opts.Seed + 1,
	})
	calib := make([]*tensor.Tensor, 0, 64)
	for i := 0; i < len(ds.Train) && i < 64; i++ {
		calib = append(calib, ds.Train[i].Image)
	}
	r.Conv.Calibrate(calib)
	r.TrainFeat = make([]metrics.Sample, len(ds.Train))
	for i, s := range ds.Train {
		r.TrainFeat[i] = metrics.Sample{X: r.Conv.Rates(trainF[i]), Y: s.Label}
	}
	r.TestFeat = featurizeWith(r.Conv, ds.Test)
	return r
}

// realizedWire is the gob form of a Realized. The conv stack's frozen
// state is its weights, biases and calibration constants; gradients and
// forward scratch (unexported in ann) are rebuild-time zero values, so
// only the portable pieces travel.
type realizedWire struct {
	DS               *dataset.Dataset
	W1, W2           *tensor.Tensor
	B1, B2           []float64
	A1, A2           float64
	PretrainAccuracy float64
	TrainFeat        []metrics.Sample
	TestFeat         []metrics.Sample
}

// GobEncode serialises the Realized for the orchestrator's disk spill.
func (r *Realized) GobEncode() ([]byte, error) {
	w := realizedWire{
		DS: r.DS,
		W1: r.Conv.Conv1.W, B1: r.Conv.Conv1.B,
		W2: r.Conv.Conv2.W, B2: r.Conv.Conv2.B,
		A1: r.Conv.A1, A2: r.Conv.A2,
		PretrainAccuracy: r.PretrainAccuracy,
		TrainFeat:        r.TrainFeat,
		TestFeat:         r.TestFeat,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds the Realized, reconstructing the conv stack from
// the dataset geometry and overwriting its initial weights with the
// serialised frozen state.
func (r *Realized) GobDecode(b []byte) error {
	var w realizedWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.DS == nil {
		return fmt.Errorf("core: spilled Realized has no dataset")
	}
	cs := ann.NewConvStack(rng.New(1), w.DS.C, w.DS.H, w.DS.W)
	if len(cs.Conv1.W.Data) != len(w.W1.Data) || len(cs.Conv2.W.Data) != len(w.W2.Data) {
		return fmt.Errorf("core: spilled conv weights do not match dataset geometry %dx%dx%d", w.DS.C, w.DS.H, w.DS.W)
	}
	copy(cs.Conv1.W.Data, w.W1.Data)
	copy(cs.Conv1.B, w.B1)
	copy(cs.Conv2.W.Data, w.W2.Data)
	copy(cs.Conv2.B, w.B2)
	cs.A1, cs.A2 = w.A1, w.A2
	r.DS = w.DS
	r.Conv = cs
	r.PretrainAccuracy = w.PretrainAccuracy
	r.TrainFeat = w.TrainFeat
	r.TestFeat = w.TestFeat
	return nil
}

// featurizeWith maps raw samples to normalised feature-rate samples
// using the given frozen conv stack.
func featurizeWith(conv *ann.ConvStack, in []dataset.Sample) []metrics.Sample {
	out := make([]metrics.Sample, len(in))
	for i, s := range in {
		out[i] = metrics.Sample{X: conv.NormalizedRates(s.Image), Y: s.Label}
	}
	return out
}

// BuildFrom constructs a model on a previously realized prefix: the
// backend network is built fresh for opts (Seed+3 RNG, exactly as
// Build), but the dataset, conv stack and featurised splits are taken
// from r without recomputation. BuildFrom(Realize(opts), opts) is
// bit-identical to Build(opts); the value of BuildFrom is that one
// Realized can serve every cell of a sweep that shares the realization
// subset of its options.
func BuildFrom(r *Realized, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	m := &Model{
		Opts:             opts,
		DS:               r.DS,
		Conv:             r.Conv,
		PretrainAccuracy: r.PretrainAccuracy,
		trainFeat:        r.TrainFeat,
		testFeat:         r.TestFeat,
	}
	m.shuffler = rng.New(opts.Seed + 2)
	if err := m.buildBackend(); err != nil {
		return nil, err
	}
	return m, nil
}
