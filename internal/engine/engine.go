// Package engine is the execution layer between core.Model and the two
// EMSTDP backends. It defines the Runner contract that both the
// full-precision reference (emstdp.Network) and the on-chip
// implementation (chipnet.Network) satisfy, and provides a worker Pool
// plus a replica Group that shard evaluation across goroutines.
//
// EMSTDP training is the paper's online protocol (§IV-A): one sample at
// a time, each update applied before the next sample runs, so it runs
// on the master alone (core.Model.TrainEpoch). Evaluation is
// embarrassingly parallel: each worker owns a replica with the master's
// weights, a prediction depends only on weights and input (all
// per-sample state is reset), so sharding samples across replicas and
// collecting predictions by index reproduces the sequential pass
// exactly, for any worker count. Background evaluation classifies a
// Group.Snapshot on its own goroutine.
package engine

// Update is the argument type of Runner.ApplyUpdate. Both backends
// accept only nil, meaning "the update the runner's own last
// RunPhases(true) left behind".
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
	// ApplyUpdate applies the weight update the runner's own last
	// RunPhases(true) left behind, drawing stochastic-rounding bits from
	// the runner's own streams. u must be nil: both backends panic
	// otherwise. The parameter remains only because the perfbench
	// module calls ApplyUpdate(nil) through this interface.
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
