// Tracing is observational by contract: attaching a live tracer to a
// pool must not change one bit of what it computes. The test reruns a
// Map with a tracer attached and additionally checks that the tracer
// actually saw the run — a silently detached tracer would make the
// contract vacuous.
package engine_test

import (
	"testing"

	"emstdp/internal/engine"
	"emstdp/internal/trace"
)

// TestTraceDoesNotPerturbPool pins the contract on the pool: Map with
// per-chunk task spans recorded must shard identically.
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
