// Tracing is observational by contract: attaching a live tracer to a
// group must not change one bit of what the pipeline computes. These
// tests rerun the headline pipeline conformance pin with a tracer
// attached and additionally check that the tracer actually saw the
// run — a silently detached tracer would make the contract vacuous.
package engine_test

import (
	"testing"

	"emstdp/internal/engine"
	"emstdp/internal/stream"
	"emstdp/internal/trace"
)

// TestTraceDoesNotPerturbPipeline pins bit-identity under observation:
// a traced concurrent pipeline against the untraced sequential
// reference of the same lag-(depth-1) schedule, on both backends.
func TestTraceDoesNotPerturbPipeline(t *testing.T) {
	const depth = 3
	samples := synthSamples(30, 20, 4, 61)
	test := synthSamples(16, 20, 4, 67)

	for name, build := range runnersUnderTest() {
		ref := build(t)
		trainLagged(t, ref, samples, depth)

		tr := trace.New()
		got := build(t)
		gGot := engine.NewGroup(got, engine.NewPool(depth))
		gGot.SetTracer(tr)
		if err := gGot.TrainPipelined(stream.NewSliceSource(samples), depth); err != nil {
			t.Fatal(err)
		}
		gGot.ClosePipeline()

		assertSameWeights(t, name, ref, got)
		for i, s := range test {
			if pr, pg := ref.Predict(s.X), got.Predict(s.X); pr != pg {
				t.Fatalf("%s: prediction %d diverged under tracing: %d vs %d", name, i, pr, pg)
			}
		}

		// The tracer must have observed the run it did not perturb:
		// every slot track carries one pass span per scheduled pass.
		passes := 0
		for _, tk := range tr.Tracks() {
			if len(tk.Name()) >= len("pipeline-slot-") && tk.Name()[:len("pipeline-slot-")] == "pipeline-slot-" {
				passes += tk.Len() + int(tk.Dropped())
			}
		}
		if passes != len(samples) {
			t.Fatalf("%s: tracer saw %d pass spans, want %d", name, passes, len(samples))
		}
	}
}

// TestTraceDoesNotPerturbPool pins the same contract on the flat pool:
// Map with per-chunk task spans recorded must shard identically.
func TestTraceDoesNotPerturbPool(t *testing.T) {
	const n = 97
	ref := make([]int, n)
	p := engine.NewPool(4)
	p.Map(n, func(w, i int) { ref[i] = i * i })

	tr := trace.New()
	got := make([]int, n)
	pt := engine.NewPool(4)
	pt.SetTracer(tr)
	pt.Map(n, func(w, i int) { got[i] = i * i })

	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("element %d diverged under tracing: %d vs %d", i, ref[i], got[i])
		}
	}
	spans := 0
	for _, tk := range tr.Tracks() {
		spans += tk.Len()
	}
	if spans == 0 {
		t.Fatal("traced Map recorded no spans")
	}
}
