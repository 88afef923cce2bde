package emstdp

import (
	"math"
	"testing"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
	"emstdp/internal/snn"
)

// trainStream deterministically synthesises n labelled rate vectors.
func trainStream(r *rng.Source, in, classes, n int) ([][]float64, []int) {
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

// TestTrainingBitIdenticalAcrossKernels trains two networks from the
// same seed — one forced onto the dense reference kernel, one on the
// production packed kernel — and demands byte-identical learned weights
// and predictions: the packed kernel changes cost, never a bit of the
// trajectory.
func TestTrainingBitIdenticalAcrossKernels(t *testing.T) {
	for _, mode := range []FeedbackMode{DFA, FA} {
		cfg := DefaultConfig(60, 40, 10)
		cfg.Mode = mode
		cfg.Seed = 21
		dense := New(cfg)
		packed := New(cfg)
		dense.SetKernel(snn.KernelDense)

		xs, ys := trainStream(rng.New(77), 60, 10, 60)
		for i := range xs {
			dense.TrainSample(xs[i], ys[i])
			packed.TrainSample(xs[i], ys[i])
		}
		for li := 0; li < dense.NumLayers(); li++ {
			wd, wp := dense.Layer(li).W, packed.Layer(li).W
			for k := range wd {
				if wd[k] != wp[k] {
					t.Fatalf("%v: layer %d weight %d: dense %v packed %v", mode, li, k, wd[k], wp[k])
				}
			}
		}
		probe, _ := trainStream(rng.New(5), 60, 10, 20)
		for _, x := range probe {
			if pd, pp := dense.Predict(x), packed.Predict(x); pd != pp {
				t.Fatalf("%v: predictions diverge: dense %d packed %d", mode, pd, pp)
			}
		}
	}
}

// assertOnPow2Grid fails unless every weight of every layer of n is an
// int8 mantissa times one power-of-two step shared by the layer.
func assertOnPow2Grid(t *testing.T, n *Network, when string) {
	t.Helper()
	for li := 0; li < n.NumLayers(); li++ {
		l := n.Layer(li)
		step := layerStep(n.Config(), layerClip(n.Config(), l.In))
		if frac, _ := math.Frexp(step); frac != 0.5 {
			t.Fatalf("%s: layer %d grid step %v is not a power of two", when, li, step)
		}
		nonzero := 0
		for k, w := range l.W {
			m := w / step
			if m != math.Trunc(m) || m < fixed.WeightMin || m > fixed.WeightMax {
				t.Fatalf("%s: layer %d weight %d = %v is not an int8 multiple of %v", when, li, k, w, step)
			}
			if m != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Fatalf("%s: layer %d has only zero weights", when, li)
		}
	}
}

// TestQuantPow2WeightsStayOnGrid pins the QuantPow2 training rule: under
// QuantBits 8 every weight is an int8 mantissa times one power-of-two
// step per layer, at init and after training; the dense reference and
// the packed kernel train bit-identically under that config; and
// TrainSample allocates nothing.
func TestQuantPow2WeightsStayOnGrid(t *testing.T) {
	cfg := DefaultConfig(60, 40, 10)
	cfg.Seed = 21
	cfg.QuantBits = 8
	cfg.QuantPow2 = true
	dense := New(cfg)
	packed := New(cfg)
	dense.SetKernel(snn.KernelDense)
	assertOnPow2Grid(t, packed, "init")
	xs, ys := trainStream(rng.New(77), 60, 10, 60)
	for i := range xs {
		dense.TrainSample(xs[i], ys[i])
		packed.TrainSample(xs[i], ys[i])
	}
	assertOnPow2Grid(t, packed, "after training")
	for li := 0; li < dense.NumLayers(); li++ {
		wd, wp := dense.Layer(li).W, packed.Layer(li).W
		for k := range wd {
			if wd[k] != wp[k] {
				t.Fatalf("layer %d weight %d: dense %v packed %v", li, k, wd[k], wp[k])
			}
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		packed.TrainSample(xs[0], ys[0])
	}); avg != 0 {
		t.Errorf("quantized TrainSample allocates %.1f objects per call, want 0", avg)
	}
}

// TestCountsMatchPredictPath guards the no-copy Predict rewrite: it must
// agree with the allocating Counts API on the argmax-relevant state.
func TestCountsMatchPredictPath(t *testing.T) {
	cfg := DefaultConfig(30, 20, 5)
	net := New(cfg)
	xs, ys := trainStream(rng.New(3), 30, 5, 20)
	for i := range xs {
		net.TrainSample(xs[i], ys[i])
	}
	for _, x := range xs {
		counts := net.Counts(x)
		outLayer := net.Layer(net.NumLayers() - 1)
		best, bi := -1.0, 0
		for i, c := range counts {
			score := float64(c) + outLayer.Potential(i)/net.Config().Theta
			if score > best {
				best, bi = score, i
			}
		}
		if got := net.Predict(x); got != bi {
			t.Fatalf("Predict %d, Counts-derived argmax %d", got, bi)
		}
	}
}

// TestTrainSampleAndPredictAllocateNothing enforces the zero-allocation
// guarantee of the per-sample hot loop: after warm-up, neither the full
// two-phase training pass nor inference may allocate — on the network
// itself, on a Clone()d replica's inference, or on a two-hidden-layer
// FA network. A regression here reintroduces GC
// pressure on the path that runs hundreds of times per second.
func TestTrainSampleAndPredictAllocateNothing(t *testing.T) {
	cfg := DefaultConfig(50, 30, 10)
	net := New(cfg)
	xs, ys := trainStream(rng.New(9), 50, 10, 8)
	// Warm up: transposes built, scratch touched.
	for i := range xs {
		net.TrainSample(xs[i], ys[i])
	}
	if avg := testing.AllocsPerRun(50, func() {
		net.TrainSample(xs[0], ys[0])
	}); avg != 0 {
		t.Errorf("TrainSample allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		net.Predict(xs[1])
	}); avg != 0 {
		t.Errorf("Predict allocates %.1f objects per call, want 0", avg)
	}

	// A replica's inference, as the evaluation and snapshot replicas run
	// it: a Clone()d network's scratch is built at clone time, never per
	// sample.
	replica := net.Clone()
	replica.Predict(xs[2])
	if avg := testing.AllocsPerRun(50, func() {
		replica.Predict(xs[2])
	}); avg != 0 {
		t.Errorf("Clone()d replica Predict allocates %.1f objects per call, want 0", avg)
	}

	// Two hidden layers under FA: the relay and the chained error banks.
	faCfg := DefaultConfig(50, 30, 20, 10)
	faCfg.Mode = FA
	deep := New(faCfg)
	for i := range xs {
		deep.TrainSample(xs[i], ys[i])
	}
	if avg := testing.AllocsPerRun(50, func() {
		deep.TrainSample(xs[3], ys[3])
	}); avg != 0 {
		t.Errorf("two-hidden-layer FA TrainSample allocates %.1f objects per call, want 0", avg)
	}
}

// benchNetwork builds perfbench's FP model shape — 200-100-10, T=64, DFA
// (DefaultConfig) — and 64 seeded rate vectors with labels.
func benchNetwork() (*Network, [][]float64, []int) {
	net := New(DefaultConfig(200, 100, 10))
	xs, ys := trainStream(rng.New(1), 200, 10, 64)
	return net, xs, ys
}

// BenchmarkTrainSample times one online training sample: programming,
// both phases and the eq (7) update.
func BenchmarkTrainSample(b *testing.B) {
	net, xs, ys := benchNetwork()
	for i := 0; b.Loop(); i++ {
		k := i % len(xs)
		net.TrainSample(xs[k], ys[k])
	}
}

// BenchmarkPredict times one inference pass on weights trained over the
// seeded vectors once.
func BenchmarkPredict(b *testing.B) {
	net, xs, ys := benchNetwork()
	for k := range xs {
		net.TrainSample(xs[k], ys[k])
	}
	for i := 0; b.Loop(); i++ {
		net.Predict(xs[i%len(xs)])
	}
}
