package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/trace"
)

// build builds the workload's FP model from scratch (dataset, conv
// pretraining, backend) and records the time it took; setup_s is the
// median of these times. Every build must realize the same features as
// the first, which it returns.
func (b *bench) build() (*core.Realized, *core.Model, error) {
	o := b.options(core.FP)
	start := time.Now()
	s := b.coreTk.Begin()
	ds := core.RealizeDataset(o)
	b.coreTk.End(s, "realize_dataset")
	s = b.coreTk.Begin()
	r := core.PretrainFrom(ds, o)
	b.coreTk.End(s, "pretrain")
	s = b.coreTk.Begin()
	m, err := core.BuildFrom(r, o)
	b.coreTk.End(s, "build_from")
	if err != nil {
		return nil, nil, fmt.Errorf("building the FP model: %w", err)
	}
	b.buildSecs = append(b.buildSecs, time.Since(start).Seconds())
	b.rep.attempted++
	if b.realized == nil {
		b.realized = r
	} else {
		b.rep.check(sameRealized(b.realized, r), "build %d realized a different dataset or conv features than build 1", len(b.buildSecs))
	}
	return b.realized, m, nil
}

// setup makes the run's first build. heap_mb is the live heap after a
// forced GC with its model still live.
func (b *bench) setup() (*core.Realized, error) {
	r, m, err := b.build()
	if err != nil {
		return nil, err
	}
	defer m.Close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.rep.set("heap_mb", float64(mem.HeapAlloc)/(1<<20))
	runtime.KeepAlive(m)
	return r, nil
}

// finishSetup reports setup_s and, traced, the build's stages.
func (b *bench) finishSetup() error {
	b.rep.set("setup_s", median(b.buildSecs))
	if !b.traced {
		return nil
	}
	spans, err := spanDurations(b.coreTk)
	if err != nil {
		return err
	}
	b.rep.set("core.realize_dataset_s", median(spans["realize_dataset"])/1e9)
	b.rep.set("core.pretrain_s", median(spans["pretrain"])/1e9)
	b.rep.set("core.build_from_s", median(spans["build_from"])/1e9)
	return nil
}

// sameRealized reports whether two realizations produced bit-identical
// pretraining and features.
func sameRealized(a, b *core.Realized) bool {
	if a.PretrainAccuracy != b.PretrainAccuracy {
		return false
	}
	same := func(x, y []metrics.Sample) bool {
		return slices.EqualFunc(x, y, func(p, q metrics.Sample) bool {
			return p.Y == q.Y && slices.Equal(p.X, q.X)
		})
	}
	return same(a.TrainFeat, b.TrainFeat) && same(a.TestFeat, b.TestFeat)
}

// permuted returns r with its test split in a seed-drawn order: the run's
// seed changes the order evaluation visits samples in, which must not
// change any result.
func (b *bench) permuted(r *core.Realized) *core.Realized {
	p := *r
	p.TestFeat = slices.Clone(r.TestFeat)
	rand.New(rand.NewPCG(b.seed, 1)).Shuffle(len(p.TestFeat), func(i, j int) {
		p.TestFeat[i], p.TestFeat[j] = p.TestFeat[j], p.TestFeat[i]
	})
	return &p
}

// spanDurations groups the durations (ns) of the spans held on tk by
// name. A track that overwrote events is an error: its figures would
// silently cover only the tail of the run.
func spanDurations(tk *trace.Track) (map[string][]float64, error) {
	if d := tk.Dropped(); d > 0 {
		return nil, fmt.Errorf("trace track %s dropped %d events", tk.Name(), d)
	}
	out := map[string][]float64{}
	for _, e := range tk.Events() {
		if e.Kind == trace.KindSpan {
			out[e.Name] = append(out[e.Name], float64(e.Dur))
		}
	}
	return out, nil
}

// fastest returns, for each repeated training sample, the fastest of
// its times over the repeats. Items never run are skipped.
func fastest(reps [][]float64) []float64 {
	var out []float64
	for _, xs := range reps {
		if len(xs) > 0 {
			out = append(out, slices.Min(xs))
		}
	}
	return out
}

// byItem transposes per-round sample times into per-sample repeats.
func byItem(rounds [][]float64) [][]float64 {
	items := make([][]float64, len(rounds[0]))
	for _, r := range rounds {
		for i, v := range r {
			items[i] = append(items[i], v)
		}
	}
	return items
}

// setTrain reports online-training throughput and latency; prefix
// names the backend. Every round trains the same samples, so each
// sample's time is the fastest of its repeats and the figures are taken
// over the samples. A shared host switches between a fast and a slow
// speed within a second and for a varying share of each run; a sample's
// fastest repeat is its time at the fast speed whenever one of its
// repeats met it, where a median flips between the two speeds as that
// share crosses one half.
func (b *bench) setTrain(prefix string, rounds [][]float64) {
	lat := fastest(byItem(rounds))
	b.rep.set(prefix+"train_best_per_s", 1e3/mean(lat))
	b.rep.set(prefix+"train_ms_best_p50", quantile(lat, 0.5))
}

// trainSpans runs one TrainSample as the three Runner calls it is made
// of, each in a span on tk.
func trainSpans(tk *trace.Track, r engine.Runner, s metrics.Sample) {
	t := tk.Begin()
	r.ProgramSample(s.X, s.Y)
	tk.End(t, "program")
	t = tk.Begin()
	r.RunPhases(true)
	tk.End(t, "run_phases")
	t = tk.Begin()
	r.ApplyUpdate(nil)
	tk.End(t, "apply")
}

// setTrainSpans reports the median time of each call trainSpans timed.
func (b *bench) setTrainSpans(layer string, spans map[string][]float64) {
	for _, call := range []string{"program", "run_phases", "apply"} {
		b.rep.set(layer+"."+call+"_us", median(spans[call])/1e3)
	}
}
