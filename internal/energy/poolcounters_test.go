package energy_test

import (
	"testing"

	"emstdp/internal/chipnet"
	"emstdp/internal/energy"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
)

// This file pins the per-replica half of "energy counters under
// parallelism" (the per-die half lives in multichip_test.go): the
// engine Group's deterministic replica-order counter reduction must let
// the Table II harness drive the worker pool instead of one chip
// sequentially, without changing a single reported number. The
// underlying argument: every counter is a per-event integer increment
// and a pass is a pure function of (weights, input), so spreading the
// same passes across replicas only relocates increments between chips —
// the reduced totals, and therefore Analyze's time/power/energy, are
// invariant. The training half of the pin — pipelined training against
// the sequential walk of the same schedule — lives beside that
// schedule's reference in the engine's pipeline conformance suite.

// samplesFor draws the deterministic workload both runs measure.
func samplesFor(n, in, classes int) []metrics.Sample {
	r := rng.New(17)
	out := make([]metrics.Sample, n)
	for i := range out {
		x := make([]float64, in)
		r.FillUniform(x, 0, 0.8)
		out[i] = metrics.Sample{X: x, Y: r.Intn(classes)}
	}
	return out
}

func poolNet(t *testing.T) *chipnet.Network {
	t.Helper()
	cfg := chipnet.DefaultConfig(64, 48, 10)
	cfg.Seed = 5
	net, err := chipnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPoolCountersMatchSequentialTableII drives the Table II "Testing"
// measurement once on a single chip and once sharded across a
// four-replica pool, and demands identical activity counters and
// identical Analyze output — the pool-driven Table II row equals the
// sequential single-chip run exactly.
func TestPoolCountersMatchSequentialTableII(t *testing.T) {
	const nSamples = 24
	samples := samplesFor(nSamples, 64, 10)

	seq := poolNet(t)
	seq.ResetCounters()
	for _, s := range samples {
		seq.Predict(s.X)
	}
	seqCounters := seq.Counters()

	pool := poolNet(t)
	g := engine.NewGroup(pool, engine.NewPool(4))
	g.ResetCounters()
	if _, err := g.Predict(samples); err != nil {
		t.Fatal(err)
	}
	poolCounters, ok := g.Counters()
	if !ok {
		t.Fatal("chip-backed group must expose counters")
	}

	if seqCounters != poolCounters {
		t.Fatalf("pool-driven counters diverge from the sequential single chip:\nseq  %+v\npool %+v",
			seqCounters, poolCounters)
	}

	model := energy.DefaultLoihi()
	seqRep := model.Analyze(seqCounters, seq.CoresUsed(), seq.MaxPlasticNeuronsPerCore(), nSamples, false)
	poolRep := model.Analyze(poolCounters, pool.CoresUsed(), pool.MaxPlasticNeuronsPerCore(), nSamples, false)
	if seqRep != poolRep {
		t.Fatalf("pool-driven Table II numbers diverge:\nseq  %+v\npool %+v", seqRep, poolRep)
	}
	if seqRep.EnergyPerSampleJ <= 0 || seqRep.FPS <= 0 {
		t.Fatalf("degenerate Table II report: %+v", seqRep)
	}
}
