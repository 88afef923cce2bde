// Determinism tests for the execution engine: at a fixed seed,
// evaluation through the Pool must be bit-identical for any worker
// count, on both backends, and replicas must carry exactly the master's
// weights and training masks. This is the property that lets evaluation
// scale across cores without giving up reproducibility.
package engine_test

import (
	"testing"

	"emstdp/internal/chipnet"
	"emstdp/internal/emstdp"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
)

// synthSamples draws a deterministic labelled toy set.
func synthSamples(n, dim, classes int, seed uint64) []metrics.Sample {
	r := rng.New(seed)
	out := make([]metrics.Sample, n)
	for i := range out {
		x := make([]float64, dim)
		y := r.Intn(classes)
		// Class-dependent mean keeps the task learnable, which keeps the
		// weight trajectories non-trivial.
		lo := 0.1 * float64(y)
		r.FillUniform(x, lo, lo+0.4)
		out[i] = metrics.Sample{X: x, Y: y}
	}
	return out
}

// fpNet builds a small full-precision network with stochastic weight
// quantization enabled, so the test exercises the master's rounding
// stream — the subtlest part of the bit-identical claim.
func fpNet(t *testing.T) *emstdp.Network {
	t.Helper()
	cfg := emstdp.DefaultConfig(20, 15, 4)
	cfg.T = 16
	cfg.QuantBits = 8
	cfg.Seed = 7
	return emstdp.New(cfg)
}

func chipNet(t *testing.T) *chipnet.Network {
	t.Helper()
	cfg := chipnet.DefaultConfig(20, 12, 4)
	cfg.T = 16
	cfg.Seed = 7
	n, err := chipnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fpWeights flattens every trainable layer's weights.
func fpWeights(n *emstdp.Network) []float64 {
	var w []float64
	for i := 0; i < n.NumLayers(); i++ {
		w = append(w, n.Layer(i).W...)
	}
	return w
}

// chipWeights flattens every plastic group's mantissas.
func chipWeights(n *chipnet.Network) []int8 {
	var w []int8
	for i := 0; i < n.NumPlasticLayers(); i++ {
		w = append(w, n.Plastic(i).W...)
	}
	return w
}

// trainOn walks the first n samples of the cyclic sequence samples[0],
// samples[1], … through the paper's online protocol on r: one
// ProgramSample → RunPhases(true) → ApplyUpdate(nil) per sample.
func trainOn(r engine.Runner, samples []metrics.Sample, n int) {
	for i := 0; i < n; i++ {
		s := samples[i%len(samples)]
		r.ProgramSample(s.X, s.Y)
		r.RunPhases(true)
		r.ApplyUpdate(nil)
	}
}

// runnersUnderTest enumerates the two backends every group contract
// must hold on.
func runnersUnderTest() map[string]func(*testing.T) engine.Runner {
	return map[string]func(*testing.T) engine.Runner{
		"fp":   func(t *testing.T) engine.Runner { return fpNet(t) },
		"chip": func(t *testing.T) engine.Runner { return chipNet(t) },
	}
}

// mockRunner is a Runner with no network behind it, for group
// lifecycle tests that never run a pass.
type mockRunner struct{}

func (mockRunner) ProgramSample(x []float64, label int) {}
func (mockRunner) RunPhases(train bool)                 {}
func (mockRunner) ApplyUpdate(engine.Update)            {}
func (mockRunner) Predict(x []float64) int              { return 0 }
func (mockRunner) CloneRunner() (engine.Runner, error)  { return mockRunner{}, nil }
func (mockRunner) SyncWeights(src engine.Runner) error  { return nil }

func TestParallelPredictMatchesSequential(t *testing.T) {
	train := synthSamples(16, 20, 4, 11)
	test := synthSamples(40, 20, 4, 13)

	for name, build := range map[string]func(*testing.T) engine.Runner{
		"fp":   func(t *testing.T) engine.Runner { return fpNet(t) },
		"chip": func(t *testing.T) engine.Runner { return chipNet(t) },
	} {
		n := build(t)
		trainOn(n, train, len(train))

		want := make([]int, len(test))
		for i, s := range test {
			want[i] = n.Predict(s.X)
		}
		g := engine.NewGroup(n, engine.NewPool(4))
		got, err := g.Predict(test)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: prediction %d diverged: sequential %d vs parallel %d", name, i, want[i], got[i])
			}
		}
	}
}

func TestGroupEvaluateAccumulatesInSampleOrder(t *testing.T) {
	train := synthSamples(16, 20, 4, 11)
	test := synthSamples(30, 20, 4, 17)
	n := fpNet(t)
	trainOn(n, train, len(train))

	g1 := engine.NewGroup(fpCopy(t, n, train), engine.NewPool(1))
	g4 := engine.NewGroup(n, engine.NewPool(4))
	cm1, err := g1.Evaluate(test, 4)
	if err != nil {
		t.Fatal(err)
	}
	cm4, err := g4.Evaluate(test, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cm1.Cells {
		if cm1.Cells[i] != cm4.Cells[i] {
			t.Fatalf("confusion cell %d: %d vs %d", i, cm1.Cells[i], cm4.Cells[i])
		}
	}
}

// fpCopy retrains an identical network so the two groups under
// comparison own independent masters.
func fpCopy(t *testing.T, _ *emstdp.Network, train []metrics.Sample) *emstdp.Network {
	t.Helper()
	n := fpNet(t)
	trainOn(n, train, len(train))
	return n
}

// TestChipSyncWeightsCarriesTrainingMasks pins the Runner contract's
// "training-relevant masks" clause on the chip backend: after the
// master freezes classes (incremental protocol) and reduces the
// learning rate, a synced replica must train bit-identically.
func TestChipSyncWeightsCarriesTrainingMasks(t *testing.T) {
	master := chipNet(t)
	r, err := master.CloneRunner()
	if err != nil {
		t.Fatal(err)
	}
	clone := r.(*chipnet.Network)

	disabled := []bool{false, true, false, true}
	master.SetOutputDisabled(disabled)
	master.SetLRReduced(true)
	if err := clone.SyncWeights(master); err != nil {
		t.Fatal(err)
	}
	pos, neg := clone.ErrOut()
	if !pos.Disabled(1) || !neg.Disabled(3) {
		t.Fatal("disabled error-neuron mask not synced to replica")
	}

	// Behavioural check: identical training on both must stay
	// bit-identical (covers the groups' FrozenPost and Shift too).
	samples := synthSamples(8, 20, 4, 23)
	for _, s := range samples {
		master.TrainSample(s.X, s.Y)
		clone.TrainSample(s.X, s.Y)
	}
	wm, wc := chipWeights(master), chipWeights(clone)
	for i := range wm {
		if wm[i] != wc[i] {
			t.Fatalf("mantissa %d diverged after masked training: %v vs %v", i, wm[i], wc[i])
		}
	}
}

func TestCloneRunnerIsIndependentReplica(t *testing.T) {
	samples := synthSamples(8, 20, 4, 19)
	n := fpNet(t)
	trainOn(n, samples, len(samples))

	r, err := n.CloneRunner()
	if err != nil {
		t.Fatal(err)
	}
	clone := r.(*emstdp.Network)
	// Same weights now…
	wa, wb := fpWeights(n), fpWeights(clone)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("clone weight %d differs", i)
		}
	}
	// …and training the master must not leak into the clone.
	before := append([]float64(nil), wb...)
	for _, s := range samples {
		n.TrainSample(s.X, s.Y)
	}
	wb = fpWeights(clone)
	for i := range wb {
		if wb[i] != before[i] {
			t.Fatalf("master training mutated clone weight %d", i)
		}
	}
	// SyncWeights brings the clone back in line.
	if err := clone.SyncWeights(n); err != nil {
		t.Fatal(err)
	}
	wa, wb = fpWeights(n), fpWeights(clone)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("post-sync weight %d differs", i)
		}
	}
}
