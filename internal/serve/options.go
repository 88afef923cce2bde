package serve

import (
	"fmt"
	"strings"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/stream"
)

// Serving-knob defaults: a micro-batch holds at most 64 feature
// vectors, enough to keep every pool worker busy without letting one
// large batch delay the requests parked behind it; the admission band
// mirrors the training channel's double-buffering hysteresis at request
// scale.
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
	// Workers sizes the replica pool classify batches shard across.
	Workers int `json:"workers,omitempty"`

	// MaxBatch caps the feature vectors coalesced into one pool
	// dispatch (default 64).
	MaxBatch int `json:"max_batch,omitempty"`
	// AdmitLow / AdmitHigh are the training stream's watermarks
	// (defaults 8 / 32): at AdmitHigh buffered samples the tenant
	// answers train requests with 429 until the trainer drains back to
	// AdmitLow.
	AdmitLow  int `json:"admit_low,omitempty"`
	AdmitHigh int `json:"admit_high,omitempty"`
	// Trace enables a per-tenant Chrome/Perfetto trace, exported on
	// GET /v1/{tenant}/trace.
	Trace bool `json:"trace,omitempty"`
}

// parseDataset maps the JSON dataset names onto dataset.Kind.
func parseDataset(name string) (dataset.Kind, error) {
	switch strings.ToLower(name) {
	case "", "mnist":
		return dataset.MNIST, nil
	case "fashion", "fashion-mnist", "fashionmnist":
		return dataset.FashionMNIST, nil
	case "cifar10", "cifar-10":
		return dataset.CIFAR10, nil
	case "mstar":
		return dataset.MSTAR, nil
	default:
		return 0, fmt.Errorf("unknown dataset %q (want mnist, fashion, cifar10 or mstar)", name)
	}
}

// parseBackend maps the JSON backend names onto core.Backend.
func parseBackend(name string) (core.Backend, error) {
	switch strings.ToLower(name) {
	case "", "fp":
		return core.FP, nil
	case "chip", "loihi":
		return core.Chip, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (want fp or chip)", name)
	}
}

// coreOptions translates the tenant request into the core.Options the
// model is built from. Knobs TenantOptions does not expose (feedback
// mode, partition strategy, topology, conv on chip) stay at their core
// defaults. Training is online, one sample at a time, as everywhere.
func (o TenantOptions) coreOptions() (core.Options, error) {
	ds, err := parseDataset(o.Dataset)
	if err != nil {
		return core.Options{}, err
	}
	be, err := parseBackend(o.Backend)
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
		Workers:        o.Workers,
	}, nil
}

// batchCap returns the max coalesced batch size with its default.
func (o TenantOptions) batchCap() int {
	if o.MaxBatch <= 0 {
		return defaultMaxBatch
	}
	return o.MaxBatch
}

// watermarks returns the training stream's admission band with its
// defaults (stream.Watermarks normalisation still applies on top).
func (o TenantOptions) watermarks() stream.Watermarks {
	wm := stream.Watermarks{Low: o.AdmitLow, High: o.AdmitHigh}
	if wm.High == 0 {
		wm = stream.Watermarks{Low: defaultAdmitLow, High: defaultAdmitHigh}
	}
	return wm.Normalised()
}
