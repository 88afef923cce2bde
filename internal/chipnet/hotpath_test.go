package chipnet

import (
	"testing"

	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/rng"
)

// chipStream synthesises n labelled rate vectors.
func chipStream(r *rng.Source, in, classes, n int) ([][]float64, []int) {
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		x := make([]float64, in)
		r.FillUniform(x, 0, 0.6)
		xs[i] = x
		ys[i] = r.Intn(classes)
	}
	return xs, ys
}

// TestChipTrainingBitIdenticalAcrossDelivery trains two identical chip
// networks — one forced onto the reference dense delivery kernel, one on
// the production packed path — and demands byte-identical plastic
// mantissas, spike counts and predictions. Integer membrane accumulation
// is saturating, so this holds only because both kernels deliver in
// ascending presynaptic order; the test pins that contract.
func TestChipTrainingBitIdenticalAcrossDelivery(t *testing.T) {
	cfg := DefaultConfig(40, 30, 10)
	dense, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense.mesh.SetDelivery(loihi.DeliveryDense)

	xs, ys := chipStream(rng.New(31), 40, 10, 40)
	for i := range xs {
		dense.TrainSample(xs[i], ys[i])
		sparse.TrainSample(xs[i], ys[i])
	}
	for li := 0; li < dense.NumPlasticLayers(); li++ {
		wd, ws := dense.Plastic(li).W, sparse.Plastic(li).W
		for k := range wd {
			if wd[k] != ws[k] {
				t.Fatalf("plastic layer %d mantissa %d: dense %d sparse %d", li, k, wd[k], ws[k])
			}
		}
	}
	probe, _ := chipStream(rng.New(8), 40, 10, 15)
	for _, x := range probe {
		cd, cs := dense.Counts(x), sparse.Counts(x)
		for j := range cd {
			if cd[j] != cs[j] {
				t.Fatalf("output counts diverge: dense %v sparse %v", cd, cs)
			}
		}
		if pd, ps := dense.Predict(x), sparse.Predict(x); pd != ps {
			t.Fatalf("predictions diverge: dense %d sparse %d", pd, ps)
		}
	}
	// The work counted must be the work done: both kernels report the
	// same SynapticEvents for the same spike history.
	if de, se := dense.Counters().SynapticEvents, sparse.Counters().SynapticEvents; de != se {
		t.Fatalf("synaptic events diverge: dense %d sparse %d", de, se)
	}
}

// TestChipTrainSampleAndPredictAllocateNothing mirrors the FP backend's
// zero-allocation guarantee on the cycle-level simulator: after warm-up
// the two-phase schedule and inference must not allocate per sample —
// on one die or a 4-die mesh, on a Clone()d replica's inference, or
// through the event-input schedule.
func TestChipTrainSampleAndPredictAllocateNothing(t *testing.T) {
	cfg := DefaultConfig(40, 30, 10)
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := chipStream(rng.New(13), 40, 10, 6)
	for i := range xs {
		net.TrainSample(xs[i], ys[i])
	}
	if avg := testing.AllocsPerRun(20, func() {
		net.TrainSample(xs[0], ys[0])
	}); avg != 0 {
		t.Errorf("chip TrainSample allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		net.Predict(xs[1])
	}); avg != 0 {
		t.Errorf("chip Predict allocates %.1f objects per call, want 0", avg)
	}

	// A 2×2 mesh: routing scratch and link routes are built during
	// warm-up, never per sample.
	meshCfg := cfg
	meshCfg.Chips, meshCfg.Partition = 4, mapping.StrategyRange
	meshCfg.Topology = loihi.Topology{Kind: loihi.TopoMesh}
	mesh, err := New(meshCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		mesh.TrainSample(xs[i], ys[i])
	}
	if avg := testing.AllocsPerRun(20, func() {
		mesh.TrainSample(xs[0], ys[0])
	}); avg != 0 {
		t.Errorf("4-die mesh TrainSample allocates %.1f objects per call, want 0", avg)
	}

	// A replica's inference, as the evaluation and snapshot replicas run
	// it: a Clone()d network's staging is built at clone time, never per
	// sample.
	replica, err := net.Clone()
	if err != nil {
		t.Fatal(err)
	}
	replica.Predict(xs[2])
	if avg := testing.AllocsPerRun(20, func() {
		replica.Predict(xs[2])
	}); avg != 0 {
		t.Errorf("Clone()d replica Predict allocates %.1f objects per call, want 0", avg)
	}

	// Event input: the same boundary and step loop with per-step spike
	// injection.
	evCfg := cfg
	evCfg.SpikeInput = true
	ev, err := New(evCfg)
	if err != nil {
		t.Fatal(err)
	}
	train := rateEvents(xs[3], cfg.T)
	ev.TrainSampleEvents(train, ys[3])
	if avg := testing.AllocsPerRun(20, func() {
		ev.TrainSampleEvents(train, ys[3])
	}); avg != 0 {
		t.Errorf("TrainSampleEvents allocates %.1f objects per call, want 0", avg)
	}
}
