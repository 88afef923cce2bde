// Conformance harness for pipelined two-phase training. The pipelined
// schedule is only shippable with a tested update-lag argument, so this
// file pins it from four sides: bit-identity of the concurrent pipeline
// against the sequential reference of the same lag-(depth-1) schedule
// (trainLagged, below) on both backends (weights, predictions, chip
// counters and the Table II numbers they feed); exact degeneration to
// the paper's online protocol at depth 1; a property test that
// randomizes sample order and pipeline depth and checks the realized
// update sequence against the schedule spec; and the zero-allocation
// steady state.
package engine_test

import (
	"fmt"
	"testing"

	"emstdp/internal/chipnet"
	"emstdp/internal/emstdp"
	"emstdp/internal/energy"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
	"emstdp/internal/stream"
)

// trainLagged is the sequential reference of the pipelined schedule: it
// walks samples through the identical lag-(depth-1) deferred-update
// schedule one pass at a time on a single scratch replica cloned from
// master, with no concurrency anywhere, and returns that replica so its
// counters can be reduced with the master's. TrainPipelined's contract
// is bit-identity with this walk — weights, predictions and chip
// counters — and it is the spec readers should consult: every property
// of the pipelined schedule is plainly visible in this loop.
func trainLagged(t *testing.T, master engine.Runner, samples []metrics.Sample, depth int) engine.Runner {
	t.Helper()
	r, err := master.CloneRunner()
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]engine.Update, depth)
	for k, s := range samples {
		slot := k % depth
		if k >= depth {
			master.ApplyUpdate(pending[slot])
		}
		if err := r.SyncWeights(master); err != nil {
			t.Fatal(err)
		}
		r.ProgramSample(s.X, s.Y)
		r.RunPhases(true)
		pending[slot] = r.CaptureUpdate()
	}
	for k := max(len(samples)-depth, 0); k < len(samples); k++ {
		master.ApplyUpdate(pending[k%depth])
	}
	return r
}

// runnersUnderTest enumerates the two backends every pipeline contract
// must hold on.
func runnersUnderTest() map[string]func(*testing.T) engine.Runner {
	return map[string]func(*testing.T) engine.Runner{
		"fp":   func(t *testing.T) engine.Runner { return fpNet(t) },
		"chip": func(t *testing.T) engine.Runner { return chipNet(t) },
	}
}

// assertSameWeights compares the trainable state of two runners of the
// same backend bit for bit.
func assertSameWeights(t *testing.T, label string, a, b engine.Runner) {
	t.Helper()
	switch an := a.(type) {
	case *emstdp.Network:
		wa, wb := fpWeights(an), fpWeights(b.(*emstdp.Network))
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("%s: weight %d diverged: %v vs %v", label, i, wa[i], wb[i])
			}
		}
	case *chipnet.Network:
		wa, wb := chipWeights(an), chipWeights(b.(*chipnet.Network))
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("%s: mantissa %d diverged: %v vs %v", label, i, wa[i], wb[i])
			}
		}
	default:
		t.Fatalf("%s: unknown runner type %T", label, a)
	}
}

// TestTrainPipelinedBitIdentical is the headline conformance pin: the
// concurrent pipeline and the sequential single-replica reference of
// the identical lag-(depth-1) schedule must produce the same weights,
// the same predictions, and (on the chip) the same reduced activity
// counters, at pipeline widths 2 and 4, on both backends.
func TestTrainPipelinedBitIdentical(t *testing.T) {
	samples := synthSamples(36, 20, 4, 51)
	test := synthSamples(24, 20, 4, 53)

	for name, build := range runnersUnderTest() {
		for _, depth := range []int{2, 4} {
			label := fmt.Sprintf("%s depth=%d", name, depth)

			ref := build(t)
			scratch := trainLagged(t, ref, samples, depth)

			got := build(t)
			gGot := engine.NewGroup(got, engine.NewPool(depth))
			if err := gGot.TrainPipelined(stream.NewSliceSource(samples), depth); err != nil {
				t.Fatal(err)
			}
			gGot.ClosePipeline()

			assertSameWeights(t, label, ref, got)
			for i, s := range test {
				if pr, pg := ref.Predict(s.X), got.Predict(s.X); pr != pg {
					t.Fatalf("%s: prediction %d diverged: %d vs %d", label, i, pr, pg)
				}
			}

			// The replica-order counter reduction must agree no matter
			// how the schedule's passes were spread across chips: the
			// reference ran every pass on one scratch replica, the
			// pipeline on `depth` of them.
			cRef, okRef := reducedCounters(ref, scratch)
			cGot, okGot := gGot.Counters()
			if okRef != okGot {
				t.Fatalf("%s: counter availability diverged: %v vs %v", label, okRef, okGot)
			}
			if name == "chip" {
				if !okGot {
					t.Fatalf("%s: chip group must expose counters", label)
				}
				// Predict above added inference activity; both sides ran
				// the identical sequence, so totals still match.
				if cRef != cGot {
					t.Fatalf("%s: reduced counters diverged:\nref %+v\ngot %+v", label, cRef, cGot)
				}
			} else if okGot {
				t.Fatalf("%s: fp group unexpectedly exposes counters", label)
			}
		}
	}
}

// TestTrainPipelinedDepth1MatchesOnline pins the degeneration contract:
// depth <= 1 is the paper's online protocol, bit for bit, on both
// backends — the pipeline's lag is exactly depth-1, and at lag 0 there
// is nothing left to distinguish.
func TestTrainPipelinedDepth1MatchesOnline(t *testing.T) {
	samples := synthSamples(20, 20, 4, 57)
	for name, build := range runnersUnderTest() {
		seq := build(t)
		for _, s := range samples {
			seq.ProgramSample(s.X, s.Y)
			seq.RunPhases(true)
			seq.ApplyUpdate(nil)
		}
		pip := build(t)
		g := engine.NewGroup(pip, engine.NewPool(2))
		if err := g.TrainPipelined(stream.NewSliceSource(samples), 1); err != nil {
			t.Fatal(err)
		}
		assertSameWeights(t, name, seq, pip)
	}
}

// TestTrainPipelinedIndependentOfPoolWidth pins that the pool width
// plays no part in the realized schedule: the pipeline's parallelism
// (and lag) is its depth, never the worker count.
func TestTrainPipelinedIndependentOfPoolWidth(t *testing.T) {
	samples := synthSamples(24, 20, 4, 59)
	var prev engine.Runner
	for _, workers := range []int{1, 4} {
		n := fpNet(t)
		g := engine.NewGroup(n, engine.NewPool(workers))
		if err := g.TrainPipelined(stream.NewSliceSource(samples), 3); err != nil {
			t.Fatal(err)
		}
		g.ClosePipeline()
		if prev != nil {
			assertSameWeights(t, fmt.Sprintf("workers=%d", workers), prev, n)
		}
		prev = n
	}
}

// mockUpdate records what the schedule actually did for one sample: the
// id it trained on and the weight version (number of updates applied to
// the master) its pass observed.
type mockUpdate struct{ sample, version int }

// mockRunner is a schedule recorder implementing engine.Runner: its
// "weights" are the update count, synced on SyncWeights, observed by
// every pass, and advanced by every ApplyUpdate. The group master's
// applied log is the realized update sequence.
type mockRunner struct {
	version int
	sample  int
	applied []mockUpdate
}

func (m *mockRunner) ProgramSample(x []float64, label int) { m.sample = label }
func (m *mockRunner) RunPhases(train bool)                 {}
func (m *mockRunner) ReadCounts() []int                    { return nil }
func (m *mockRunner) CaptureUpdate() engine.Update {
	return &mockUpdate{sample: m.sample, version: m.version}
}
func (m *mockRunner) CaptureUpdateInto(engine.Update) engine.Update { return m.CaptureUpdate() }
func (m *mockRunner) ApplyUpdate(u engine.Update) {
	if u == nil {
		// Sequential path: apply from the runner's own last pass.
		m.applied = append(m.applied, mockUpdate{sample: m.sample, version: m.version})
	} else {
		m.applied = append(m.applied, *u.(*mockUpdate))
	}
	m.version++
}
func (m *mockRunner) Predict(x []float64) int             { return 0 }
func (m *mockRunner) CloneRunner() (engine.Runner, error) { return &mockRunner{}, nil }
func (m *mockRunner) SyncWeights(src engine.Runner) error {
	m.version = src.(*mockRunner).version
	return nil
}

// TestTrainPipelinedScheduleProperty randomizes sample order, sample
// count and pipeline depth, and asserts the realized update sequence
// matches the sequential schedule spec: updates applied in sample
// order, each computed by a pass that observed the master's weights at
// exactly max(0, k-(depth-1)) applied updates — and that trainLagged
// realizes the identical sequence.
func TestTrainPipelinedScheduleProperty(t *testing.T) {
	r := rng.New(61)
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(41)
		depth := 1 + r.Intn(6)
		perm := r.Perm(max(n, 1))[:n]
		// The label names the sample, so the mock records which one
		// each update trained on.
		ordered := make([]metrics.Sample, n)
		for k, idx := range perm {
			ordered[k] = metrics.Sample{X: []float64{float64(idx)}, Y: idx}
		}

		pip := &mockRunner{}
		gPip := engine.NewGroup(pip, engine.NewPool(2))
		if err := gPip.TrainPipelined(stream.NewSliceSource(ordered), depth); err != nil {
			t.Fatal(err)
		}
		gPip.ClosePipeline()

		lag := &mockRunner{}
		trainLagged(t, lag, ordered, depth)

		if len(pip.applied) != n {
			t.Fatalf("trial %d (n=%d depth=%d): %d updates applied, want %d", trial, n, depth, len(pip.applied), n)
		}
		for k, u := range pip.applied {
			if u.sample != perm[k] {
				t.Fatalf("trial %d (n=%d depth=%d): update %d trained sample %d, want %d (in-order application broken)",
					trial, n, depth, k, u.sample, perm[k])
			}
			wantVersion := k - (depth - 1)
			if wantVersion < 0 {
				wantVersion = 0
			}
			if u.version != wantVersion {
				t.Fatalf("trial %d (n=%d depth=%d): pass %d observed weight version %d, want %d (lag contract broken)",
					trial, n, depth, k, u.version, wantVersion)
			}
		}
		for k := range pip.applied {
			if pip.applied[k] != lag.applied[k] {
				t.Fatalf("trial %d (n=%d depth=%d): realized sequence diverges from trainLagged at %d: %+v vs %+v",
					trial, n, depth, k, pip.applied[k], lag.applied[k])
			}
		}
	}
}

// TestTrainPipelinedSteadyStateAllocationFree extends the backends'
// zero-allocation contract to the pipelined loop on both backends: once
// the stage workers, replicas and update buffers exist, an epoch of
// pipelined training over a replayed source allocates nothing — capture
// recycles snapshots (CaptureUpdateInto), hand-off reuses the per-slot
// channels, and the backends' per-sample paths were already
// allocation-free.
func TestTrainPipelinedSteadyStateAllocationFree(t *testing.T) {
	src := &replaySource{samples: synthSamples(12, 20, 4, 67)}
	epoch := func(t *testing.T, g *engine.Group) {
		src.i = 0
		if err := g.TrainPipelined(src, 2); err != nil {
			t.Fatal(err)
		}
	}
	for name, build := range runnersUnderTest() {
		g := engine.NewGroup(build(t), engine.NewPool(2))
		// Warm-up builds replicas, workers, update buffers and grows the
		// worker stacks.
		for i := 0; i < 2; i++ {
			epoch(t, g)
		}
		if avg := testing.AllocsPerRun(10, func() { epoch(t, g) }); avg > 0 {
			t.Errorf("%s: pipelined steady state allocates %.2f objects per epoch, want 0", name, avg)
		}
		g.ClosePipeline()
	}
}

// TestPipelinedTrainingCountersMatchSequentialSchedule extends the
// energy harness's pool-counter pin to training: the pipelined pool run
// and the sequential single-replica walk of the same lag-1 schedule
// must leave identical reduced counters and identical Table II
// numbers — so Table II's training row can also come from the
// pipeline.
func TestPipelinedTrainingCountersMatchSequentialSchedule(t *testing.T) {
	const nSamples = 16
	r := rng.New(17)
	samples := make([]metrics.Sample, nSamples)
	for i := range samples {
		x := make([]float64, 64)
		r.FillUniform(x, 0, 0.8)
		samples[i] = metrics.Sample{X: x, Y: r.Intn(10)}
	}
	build := func() *chipnet.Network {
		cfg := chipnet.DefaultConfig(64, 48, 10)
		cfg.Seed = 5
		net, err := chipnet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	ref := build()
	ref.ResetCounters()
	scratch := trainLagged(t, ref, samples, 2)
	refCounters, _ := reducedCounters(ref, scratch)

	pip := build()
	gPip := engine.NewGroup(pip, engine.NewPool(2))
	gPip.ResetCounters()
	if err := gPip.TrainPipelined(stream.NewSliceSource(samples), 2); err != nil {
		t.Fatal(err)
	}
	gPip.ClosePipeline()
	pipCounters, _ := gPip.Counters()

	if refCounters != pipCounters {
		t.Fatalf("pipelined training counters diverge from the sequential schedule:\nref %+v\npip %+v",
			refCounters, pipCounters)
	}
	model := energy.DefaultLoihi()
	refRep := model.Analyze(refCounters, ref.CoresUsed(), ref.MaxPlasticNeuronsPerCore(), nSamples, true)
	pipRep := model.Analyze(pipCounters, pip.CoresUsed(), pip.MaxPlasticNeuronsPerCore(), nSamples, true)
	if refRep != pipRep {
		t.Fatalf("pipelined Table II training numbers diverge:\nref %+v\npip %+v", refRep, pipRep)
	}
}

// replaySource replays samples in order; setting i back to 0 starts
// another pass without allocating a new source.
type replaySource struct {
	samples []metrics.Sample
	i       int
}

func (r *replaySource) Next() (metrics.Sample, bool) {
	if r.i >= len(r.samples) {
		return metrics.Sample{}, false
	}
	r.i++
	return r.samples[r.i-1], true
}
