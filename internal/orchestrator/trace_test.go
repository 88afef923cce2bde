package orchestrator

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"emstdp/internal/engine"
	"emstdp/internal/trace"
)

// TestTraceDoesNotPerturbRun pins the tracer's observational contract
// on the scheduler: a traced run computes exactly what an untraced run
// computes (same results, same execution count), while the tracer
// records one stage span per executed task and resolve instants on a
// warm rerun.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	var refRuns atomic.Int64
	gRef, _ := sweepGraph(t, &refRuns, 2, 4)
	ref, err := Run(gRef, Config{Pool: engine.NewPool(4)})
	if err != nil {
		t.Fatal(err)
	}

	var runs atomic.Int64
	g, _ := sweepGraph(t, &runs, 2, 4)
	tr := trace.New()
	cache := NewCache("")
	out, err := Run(g, Config{Pool: engine.NewPool(4), Cache: cache, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, ref) {
		t.Fatal("traced run produced different results than the untraced run")
	}
	if runs.Load() != refRuns.Load() {
		t.Fatalf("traced run executed %d stages, untraced %d", runs.Load(), refRuns.Load())
	}

	// Every executed stage must appear as exactly one span on a
	// pool-worker track.
	spans := 0
	for _, tk := range tr.Tracks() {
		if strings.HasPrefix(tk.Name(), "pool-worker-") {
			spans += tk.Len() + int(tk.Dropped())
		}
	}
	if spans != int(runs.Load()) {
		t.Fatalf("tracer saw %d stage spans, want %d", spans, runs.Load())
	}

	// A warm rerun against the populated cache resolves every stage;
	// the orchestrator track must carry the resolve instants.
	var warmRuns atomic.Int64
	gWarm, _ := sweepGraph(t, &warmRuns, 2, 4)
	trWarm := trace.New()
	warm, err := Run(gWarm, Config{Pool: engine.NewPool(4), Cache: cache, Tracer: trWarm})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, ref) {
		t.Fatal("warm traced run diverged from reference")
	}
	if warmRuns.Load() != 0 {
		t.Fatalf("warm run executed %d stages, want 0", warmRuns.Load())
	}
	warmInstants := 0
	for _, tk := range trWarm.Tracks() {
		if tk.Name() != "orchestrator" {
			continue
		}
		for _, e := range tk.Events() {
			if e.Kind == trace.KindInstant && e.Note == "warm" {
				warmInstants++
			}
		}
	}
	if warmInstants == 0 {
		t.Fatal("warm rerun recorded no warm resolve instants")
	}
}
