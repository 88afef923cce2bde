package loihi

import (
	"testing"

	"emstdp/internal/trace"
)

// TestTraceDoesNotPerturbMesh pins the tracer's observational contract
// on the board model: a traced sharded mesh steps bit-identically to an
// untraced one — membranes, spikes, weights, counters and the traffic
// ledger — while the tracer records the per-step phase spans and
// per-link load counters.
func TestTraceDoesNotPerturbMesh(t *testing.T) {
	plain, ppops, pgroups := buildMeshBench(t, 2)
	traced, tpops, tgroups := buildMeshBench(t, 2)
	tr := trace.New()
	traced.SetTracer(tr)

	const steps = 32
	for round := 0; round < 3; round++ {
		plain.Run(steps)
		traced.Run(steps)
		plain.ApplyLearning()
		traced.ApplyLearning()
		for pi := range ppops {
			pp, tp := ppops[pi], tpops[pi]
			for i := 0; i < pp.N; i++ {
				if pp.Potential(i) != tp.Potential(i) {
					t.Fatalf("round %d pop %s compartment %d: potential diverged under tracing", round, pp.Name, i)
				}
				if pp.SpikeBits().Get(i) != tp.SpikeBits().Get(i) {
					t.Fatalf("round %d pop %s compartment %d: spike diverged under tracing", round, pp.Name, i)
				}
			}
		}
		for gi := range pgroups {
			for i := range pgroups[gi].W {
				if pgroups[gi].W[i] != tgroups[gi].W[i] {
					t.Fatalf("round %d group %s weight %d diverged under tracing", round, pgroups[gi].Name, i)
				}
			}
		}
		plain.ResetState()
		traced.ResetState()
	}
	if p, g := plain.Counters(), traced.Counters(); p != g {
		t.Fatalf("counters diverged under tracing:\nplain  %+v\ntraced %+v", p, g)
	}
	if p, g := plain.Traffic(), traced.Traffic(); p != g {
		t.Fatalf("traffic diverged under tracing:\nplain  %+v\ntraced %+v", p, g)
	}

	// The tracer must have seen the stepping it did not perturb: phase
	// spans on "mesh-phase" and link-load counters on "mesh-links".
	var phase, links *trace.Track
	for _, tk := range tr.Tracks() {
		switch tk.Name() {
		case "mesh-phase":
			phase = tk
		case "mesh-links":
			links = tk
		}
	}
	if phase == nil || links == nil {
		t.Fatal("tracer is missing the mesh-phase or mesh-links track")
	}
	if phase.Len()+int(phase.Dropped()) == 0 {
		t.Fatal("mesh-phase track recorded no spans")
	}
	if links.Len()+int(links.Dropped()) == 0 {
		t.Fatal("mesh-links track recorded no link-load counters")
	}

	// SetTracer(nil) detaches: further stepping records nothing.
	traced.SetTracer(nil)
	before := phase.Len() + int(phase.Dropped())
	traced.Run(steps)
	if after := phase.Len() + int(phase.Dropped()); after != before {
		t.Fatalf("detached tracer still recorded %d new events", after-before)
	}
}
