package serve

import (
	"runtime"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
)

// Serving-knob defaults: a micro-batch holds at most 64 feature
// vectors, enough to keep every pool worker busy without letting one
// large batch delay the requests parked behind it; the admission band
// lets the trainer fall 32 samples behind and reopens the gate once it
// is back within 8.
const (
	defaultMaxBatch  = 64
	defaultAdmitLow  = 8
	defaultAdmitHigh = 32
)

// TenantOptions is the JSON body of a tenant-creation request: the
// subset of core.Options a serving tenant may configure, plus the
// serving-layer knobs (micro-batch coalescing, training admission
// watermarks, tracing). Zero values select the same defaults core
// applies, so `{}` (or an empty body) builds the stock MNIST/FP model.
type TenantOptions struct {
	// Dataset names the evaluation task: "mnist" (default), "fashion",
	// "cifar10" or "mstar".
	Dataset string `json:"dataset,omitempty"`
	// Backend picks the implementation: "fp" (default) or "chip".
	Backend string `json:"backend,omitempty"`
	// Hidden lists hidden dense layer sizes.
	Hidden []int `json:"hidden,omitempty"`
	// T is the spiking phase length.
	T int `json:"t,omitempty"`
	// TrainSamples / TestSamples size the generated dataset splits.
	TrainSamples int `json:"train_samples,omitempty"`
	TestSamples  int `json:"test_samples,omitempty"`
	// PretrainEpochs configures offline conv pretraining.
	PretrainEpochs int `json:"pretrain_epochs,omitempty"`
	// NeuronsPerCore and Chips are the chip-backend mapping knobs.
	NeuronsPerCore int `json:"neurons_per_core,omitempty"`
	Chips          int `json:"chips,omitempty"`
	// Seed drives every random choice in the tenant's model.
	Seed uint64 `json:"seed,omitempty"`
	// Workers sizes the replica pool classify batches shard across,
	// capped at runtime.NumCPU() (results are bit-identical at any pool
	// width); negative selects GOMAXPROCS workers.
	Workers int `json:"workers,omitempty"`

	// MaxBatch caps the feature vectors coalesced into one pool
	// dispatch (default 64).
	MaxBatch int `json:"max_batch,omitempty"`
	// AdmitLow / AdmitHigh are the training queue's watermarks
	// (defaults 8 / 32): at AdmitHigh queued samples the tenant answers
	// train requests with 429 until the trainer drains back to
	// AdmitLow. AdmitHigh bounds the admitted samples.
	AdmitLow  int `json:"admit_low,omitempty"`
	AdmitHigh int `json:"admit_high,omitempty"`
	// Trace enables a per-tenant Chrome/Perfetto trace, exported on
	// GET /v1/{tenant}/trace.
	Trace bool `json:"trace,omitempty"`
}

// coreOptions translates the tenant request into the core.Options the
// model is built from. Knobs TenantOptions does not expose (feedback
// mode, partition strategy, topology, conv on chip) stay at their core
// defaults. Training is online, one sample at a time, as everywhere.
// Workers is capped at runtime.NumCPU(): the pool builds up to Workers
// model replicas and, with Trace, one preallocated event ring per
// worker, so an unbounded request could exhaust the server's memory
// with one body.
func (o TenantOptions) coreOptions() (core.Options, error) {
	ds, err := dataset.ParseKind(o.Dataset)
	if err != nil {
		return core.Options{}, err
	}
	be, err := core.ParseBackend(o.Backend)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Dataset:        ds,
		Backend:        be,
		Hidden:         o.Hidden,
		T:              o.T,
		TrainSamples:   o.TrainSamples,
		TestSamples:    o.TestSamples,
		PretrainEpochs: o.PretrainEpochs,
		NeuronsPerCore: o.NeuronsPerCore,
		Chips:          o.Chips,
		Seed:           o.Seed,
		Workers:        min(o.Workers, runtime.NumCPU()),
	}, nil
}

// batchCap returns the max coalesced batch size with its default.
func (o TenantOptions) batchCap() int {
	if o.MaxBatch <= 0 {
		return defaultMaxBatch
	}
	return o.MaxBatch
}

// watermarks returns the training queue's admission band: the
// defaults when AdmitHigh is unset or below 1, and AdmitLow clamped
// into [0, high).
func (o TenantOptions) watermarks() (low, high int) {
	low, high = o.AdmitLow, o.AdmitHigh
	if high < 1 {
		low, high = defaultAdmitLow, defaultAdmitHigh
	}
	return min(max(low, 0), high-1), high
}
