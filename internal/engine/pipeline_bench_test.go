package engine_test

import (
	"testing"

	"emstdp/internal/emstdp"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
)

// benchNet builds a Table-I-cell-sized FP network (MNIST conv features
// into 100-10 dense).
func benchNet(b *testing.B) *emstdp.Network {
	b.Helper()
	cfg := emstdp.DefaultConfig(392, 100, 10)
	cfg.Seed = 9
	return emstdp.New(cfg)
}

func benchSamples(n int) []metrics.Sample {
	return synthSamples(n, 392, 10, 71)
}

// BenchmarkPipelineStages times the pipeline's per-sample components in
// isolation: the two-phase pass (worker side), and capture + apply +
// sync (the coordinator's serial exposure). The pipeline can only pay
// off while pass >> capture+apply+sync.
func BenchmarkPipelineStages(b *testing.B) {
	samples := benchSamples(32)
	b.Run("pass", func(b *testing.B) {
		n := benchNet(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := samples[i%len(samples)]
			n.ProgramSample(s.X, s.Y)
			n.RunPhases(true)
		}
	})
	b.Run("capture+apply", func(b *testing.B) {
		n := benchNet(b)
		s := samples[0]
		n.ProgramSample(s.X, s.Y)
		n.RunPhases(true)
		var u engine.Update
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u = n.CaptureUpdateInto(u)
			n.ApplyUpdate(u)
		}
	})
	b.Run("sync", func(b *testing.B) {
		n := benchNet(b)
		r, err := n.CloneRunner()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.SyncWeights(n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrainPipelined compares one epoch of online training against
// the depth-2 pipeline on the bench-sized network: the pipeline's
// speedup is the ratio of the two sub-benchmarks.
func BenchmarkTrainPipelined(b *testing.B) {
	src := &replaySource{samples: benchSamples(64)}
	b.Run("online", func(b *testing.B) {
		g := engine.NewGroup(benchNet(b), engine.NewPool(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.i = 0
			if _, err := g.TrainStream(src, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("depth=2", func(b *testing.B) {
		g := engine.NewGroup(benchNet(b), engine.NewPool(2))
		defer g.ClosePipeline()
		if err := g.TrainPipelined(src, 2); err != nil {
			b.Fatal(err) // warm-up builds replicas and workers
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.i = 0
			if err := g.TrainPipelined(src, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
