// Package engine is the execution layer between core.Model and the two
// EMSTDP backends. It defines the Runner contract that both the
// full-precision reference (emstdp.Network) and the on-chip
// implementation (chipnet.Network) satisfy, and provides a worker Pool
// plus a replica Group that shard evaluation and mini-batch training
// across goroutines.
//
// The paper's evaluation is embarrassingly parallel — independent test
// samples, independent sweep cells — but EMSTDP training is an online,
// order-dependent protocol. The engine reconciles the two with a
// replica scheme whose results are bit-identical to the sequential path
// at a fixed seed, for any worker count:
//
//   - Evaluation: each worker owns a replica with the master's weights;
//     a prediction depends only on weights and input (all per-sample
//     state is reset), so sharding samples across replicas and
//     collecting predictions by index reproduces the sequential pass
//     exactly.
//   - Training: samples are grouped into mini-batches. Every batch
//     member's two-phase pass runs on a replica holding the batch-start
//     weights; the resulting updates are captured and applied to the
//     master in sample order, consuming the master's stochastic-rounding
//     streams exactly as a sequential batch walk would. The division of
//     a batch among workers therefore cannot affect the result — only
//     the batch size can (Batch=1 is the paper's online protocol and
//     runs directly on the master).
//
// Training has two entry points, both pulling samples from a
// stream.Source: Group.TrainStream (online or mini-batch) and
// Group.TrainPipelined (the bounded-lag two-phase pipeline). Background
// evaluation classifies a Group.Snapshot on its own goroutine.
package engine

// Update is an opaque, backend-specific snapshot of the learning state a
// replica produced with RunPhases(train=true): for the full-precision
// backend the phase spike counters, for the chip backend the synaptic
// traces and tags the learning engine consumes. Updates are captured on
// replicas and applied on the master, in sample order, so the master's
// stochastic-rounding RNG streams advance exactly as in a sequential run.
type Update interface{}

// Runner is the per-network execution contract. A Runner owns one
// network's weights and dynamic state; it is NOT safe for concurrent use
// — the Pool gives each worker its own replica instead.
type Runner interface {
	// ProgramSample loads one sample's input (rates in [0,1], or raw
	// pixels for an on-chip conv front end) and, when label >= 0, the
	// training target. label < 0 programs an inference-only pass.
	ProgramSample(x []float64, label int)
	// RunPhases executes phase 1 (inference) and, when train is true,
	// the phase boundary plus phase 2 (error-driven correction).
	// Training requires a ProgramSample with label >= 0.
	RunPhases(train bool)
	// ReadCounts returns a copy of the output layer's phase-1 spike
	// counts from the most recent RunPhases.
	ReadCounts() []int
	// CaptureUpdate snapshots the learning state left by
	// RunPhases(true) so the update can be applied later, possibly on a
	// different replica of the same network.
	CaptureUpdate() Update
	// CaptureUpdateInto behaves like CaptureUpdate but may reuse u's
	// storage when u was captured from a runner of the same topology,
	// returning the snapshot (u recycled, or a fresh one). The
	// pipeline's steady state allocates nothing through it.
	CaptureUpdateInto(u Update) Update
	// ApplyUpdate applies a weight update: from the captured snapshot u,
	// or from the runner's own post-RunPhases state when u is nil (the
	// allocation-free sequential path). Stochastic-rounding random bits
	// are always drawn from this runner's streams, which is what makes
	// replica-computed, master-applied training bit-identical to the
	// sequential walk.
	ApplyUpdate(u Update)
	// Predict classifies x with a full inference pass (program + phase 1
	// + argmax with membrane tie-breaking).
	Predict(x []float64) int
	// CloneRunner builds a replica: same configuration, same current
	// weights, fresh dynamic state. Immutable structures (feedback
	// matrices, frozen conv features) may be shared read-only.
	CloneRunner() (Runner, error)
	// SyncWeights copies the trainable weights (and training-relevant
	// masks) from src, which must be a runner of the same backend and
	// topology.
	SyncWeights(src Runner) error
}
