package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/metrics"
	"emstdp/internal/serve"
)

const tenantPath = "/v1/bench"

// trainsPerSlice is the train caller's schedule: this many labelled
// samples per serve slice, evenly spaced — far below the one-sample-
// per-millisecond the trainer absorbs, so admission never refuses one.
const trainsPerSlice = 30

// servePhase is the serve_mixed phase: one tenant of the serving layer,
// driven in-process through its HTTP handler with no sockets. In each
// slice, cfg.callers closed-loop classify callers send cfg.vectors test
// vectors per request while a train caller posts labelled samples, one
// per request, in train split order. The tenant must end at version 1 +
// applied samples, answer every classify request as a directly trained
// reference model does at the version it names, and reach the
// reference's accuracy.
type servePhase struct {
	b           *bench
	r           *core.Realized
	srv         *serve.Server
	h           http.Handler
	callers     []*caller
	trainBodies [][]byte
	applied     []int // train split indices of accepted samples, in order
	trainFailed int

	// Per serve slice: vectors answered per second, and the median and
	// p90 of the slice's request latencies (ms).
	rates, p50s, p90s []float64
	requests          int     // classify requests sent
	latSum            float64 // their summed latency (ms)

	alloc, gcs uint64 // allocated bytes and GC cycles during slices
	pauseNs    uint64
}

// classifyObs is one answered classify request: which request body it
// was and what the tenant replied.
type classifyObs struct {
	req     int
	version uint64
	preds   []int
}

// caller is one closed-loop classify client: it sends its next request
// only after the previous one is answered.
type caller struct {
	reqs     [][]int  // test-split indices of each request's vectors
	bodies   [][]byte // the matching JSON bodies
	next     int      // index of the next body to send
	obs      []classifyObs
	failed   int
	lat      []float64 // the current slice's request latencies (ms)
	answered int       // vectors answered in the current slice
	best     []float64 // each body's fastest latency (ms); 0 if never sent
}

// newServePhase creates the tenant and the request bodies: the train
// caller's samples in split order, and for each classify caller 64
// requests of seed-drawn test vectors that it sends round-robin.
func (b *bench) newServePhase(r *core.Realized) (*servePhase, error) {
	p := &servePhase{b: b, r: r, srv: serve.New()}
	p.h = p.srv.Handler()
	topts := serve.TenantOptions{
		Dataset:        strings.ToLower(b.cfg.dataset.String()),
		TrainSamples:   b.cfg.train,
		TestSamples:    b.cfg.test,
		PretrainEpochs: b.cfg.pretrainEpochs,
		Seed:           modelSeed,
		Workers:        runtime.NumCPU(),
	}
	body, err := json.Marshal(topts)
	if err != nil {
		return nil, err
	}
	if code, resp := call(p.h, http.MethodPut, "/v1/tenants/bench", body); code != http.StatusCreated {
		p.srv.Close()
		return nil, fmt.Errorf("creating the tenant: %d %s", code, resp)
	}
	for _, s := range r.TrainFeat[:b.cfg.serveTrains] {
		body, err := json.Marshal(map[string]any{"x": s.X, "y": s.Y})
		if err != nil {
			return nil, err
		}
		p.trainBodies = append(p.trainBodies, body)
	}
	test := r.TestFeat
	rng := rand.New(rand.NewPCG(b.seed, 2))
	for range b.cfg.callers {
		cl := &caller{}
		for range 64 {
			idx := make([]int, b.cfg.vectors)
			xs := make([][]float64, len(idx))
			for j := range idx {
				idx[j] = rng.IntN(len(test))
				xs[j] = test[idx[j]].X
			}
			body, err := json.Marshal(map[string]any{"inputs": xs})
			if err != nil {
				return nil, err
			}
			cl.reqs = append(cl.reqs, idx)
			cl.bodies = append(cl.bodies, body)
		}
		cl.best = make([]float64, len(cl.bodies))
		p.callers = append(p.callers, cl)
	}
	return p, nil
}

// slice runs the classify callers for d while the train caller posts
// its next trainsPerSlice samples, evenly spaced, and records the
// slice's closed-loop rate and latency percentiles over every request.
func (p *servePhase) slice(d time.Duration) {
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range p.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.classify(p.h, deadline)
		}()
	}
	for i := 0; i < trainsPerSlice && p.posted() < len(p.trainBodies); i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / trainsPerSlice)))
		p.postTrain()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var lat []float64
	answered := 0
	for _, cl := range p.callers {
		lat = append(lat, cl.lat...)
		answered += cl.answered
		cl.lat, cl.answered = cl.lat[:0], 0
	}
	if len(lat) > 0 {
		p.requests += len(lat)
		for _, x := range lat {
			p.latSum += x
		}
		p.rates = append(p.rates, float64(answered)/elapsed)
		p.p50s = append(p.p50s, quantile(lat, 0.5))
		p.p90s = append(p.p90s, quantile(lat, 0.9))
	}
	runtime.ReadMemStats(&mem1)
	p.alloc += mem1.TotalAlloc - mem0.TotalAlloc
	p.gcs += uint64(mem1.NumGC - mem0.NumGC)
	p.pauseNs += mem1.PauseTotalNs - mem0.PauseTotalNs
}

func (p *servePhase) posted() int { return len(p.applied) + p.trainFailed }

// postTrain posts the next train sample; anything but 202 with the
// sample accepted is a failed operation.
func (p *servePhase) postTrain() {
	i := p.posted()
	code, resp := call(p.h, http.MethodPost, tenantPath+"/train", p.trainBodies[i])
	var ack struct{ Accepted int }
	if code != http.StatusAccepted || json.Unmarshal(resp, &ack) != nil || ack.Accepted != 1 {
		p.trainFailed++
		return
	}
	p.applied = append(p.applied, i)
}

// classify sends the caller's requests round-robin until deadline, at
// least one.
func (cl *caller) classify(h http.Handler, deadline time.Time) {
	for first := true; first || time.Now().Before(deadline); first = false {
		k := cl.next
		cl.next = (cl.next + 1) % len(cl.bodies)
		req := httptest.NewRequest(http.MethodPost, tenantPath+"/classify", bytes.NewReader(cl.bodies[k]))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		l := ms(time.Since(t0).Nanoseconds())
		cl.lat = append(cl.lat, l)
		if cl.best[k] == 0 || l < cl.best[k] {
			cl.best[k] = l
		}
		var out struct {
			Predictions []int
			Version     uint64
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
			cl.failed++
			continue
		}
		cl.obs = append(cl.obs, classifyObs{req: k, version: out.Version, preds: out.Predictions})
		cl.answered += len(out.Predictions)
	}
}

// finish posts any samples the slices did not reach, waits for the
// trainer, runs the checks and reports the phase's metrics.
func (p *servePhase) finish() error {
	b := p.b
	defer p.srv.Close()
	// Samples the slices did not reach go one at a time, each after the
	// last one's version is cut, so admission never sees a burst.
	for p.posted() < len(p.trainBodies) {
		if _, err := waitVersions(p.h, len(p.applied)); err != nil {
			return err
		}
		p.postTrain()
	}
	failed := p.trainFailed
	for _, cl := range p.callers {
		failed += cl.failed
	}
	b.rep.attempted += p.requests + len(p.trainBodies)
	b.rep.failed += failed
	if p.requests == 0 {
		return fmt.Errorf("no classify request was sent")
	}
	// The end-to-end figures take each request body's fastest time over
	// the run (each caller cycles through its own 64 bodies, about 40
	// times each), and the rate the closed loop would reach at those
	// times: callers × vectors ÷ mean latency. They leave out tail and
	// interference effects. The measured figures below keep them but
	// follow hypervisor steal: on a 2-CPU guest losing 10-17% of its CPU
	// time to steal, the measured p90 rose by 60% against a quiet batch
	// and spread 32% over ten runs, more than a 0.25 bound holds.
	var best []float64
	for _, cl := range p.callers {
		for _, x := range cl.best {
			if x > 0 {
				best = append(best, x)
			}
		}
	}
	b.rep.set("classify_best_per_s", float64(b.cfg.callers*b.cfg.vectors)*1e3/mean(best))
	b.rep.set("classify_ms_best_p50", quantile(best, 0.5))
	b.rep.set("classify_ms_best_p90", quantile(best, 0.9))

	// The trainer counts a sample applied before it cuts the sample's
	// version: wait for the cut, so the version, the accuracy and the
	// counters below all cover every applied sample.
	ctr, err := waitVersions(p.h, len(p.applied))
	if err != nil {
		return err
	}
	code, resp := call(p.h, http.MethodGet, tenantPath+"/accuracy", nil)
	var final struct {
		Accuracy float64
		Version  uint64
	}
	if code != http.StatusOK || json.Unmarshal(resp, &final) != nil {
		return fmt.Errorf("reading the tenant's accuracy: %d %s", code, resp)
	}
	b.rep.check(final.Version == uint64(1+len(p.applied)),
		"serve_mixed: final version %d after %d applied samples", final.Version, len(p.applied))

	ref, err := core.BuildFrom(p.r, b.options(core.FP))
	if err != nil {
		return fmt.Errorf("building the reference model: %w", err)
	}
	defer ref.Close()
	p.replay(ref)
	refAcc := ref.Evaluate().Accuracy()
	b.rep.check(final.Accuracy == refAcc,
		"serve_mixed: tenant accuracy %v at version %d, reference %v", final.Accuracy, final.Version, refAcc)

	if b.traced {
		batches := float64(ctr["classify.batches"])
		predictMs := ms(ctr["classify.latency_ns.sum"]) / float64(ctr["classify.latency_ns.count"])
		fill := float64(ctr["classify.samples"]) / batches
		// Measured: every request of a slice counts, so one held up by a
		// concurrent train update, a version cut or a GC pause lands in
		// its slice's p90; each figure is the median over slices.
		b.rep.set("serve.classify_per_s", median(p.rates))
		b.rep.set("serve.classify_ms_p50", median(p.p50s))
		b.rep.set("serve.classify_ms_p90", median(p.p90s))
		b.rep.set("serve.batch_fill", fill)
		b.rep.set("serve.coalesced_share", float64(ctr["classify.coalesced"])/batches)
		b.rep.set("serve.predict_ms", predictMs)
		b.rep.set("serve.queue_ms", p.latSum/float64(p.requests)-predictMs)
		b.rep.set("serve.train_apply_ms", ms(ctr["train.latency_ns.sum"])/float64(ctr["train.latency_ns.count"]))
		b.rep.set("serve.versions_cut", float64(ctr["versions.cut"]))
		b.rep.set("serve.train_rejected", float64(ctr["train.rejected"]))
		b.rep.set("stream.stalls", float64(ctr["train.channel.stalls"]))
		b.rep.set("stream.stalled_ms", ms(ctr["train.channel.stalled_ns"]))
		b.rep.set("runtime.alloc_bytes_per_op", float64(p.alloc)/float64(p.requests))
		b.rep.set("runtime.gc_cycles", float64(p.gcs))
		b.rep.set("runtime.gc_pause_ms", ms(int64(p.pauseNs)))
		if err := b.engineTimings(ref, p.r.TestFeat, int(fill+0.5)); err != nil {
			return err
		}
	}
	return nil
}

// replay trains ref through the applied sequence and, at each version,
// checks every classify answer the tenant gave from that version.
func (p *servePhase) replay(ref *core.Model) {
	type answer struct {
		cl  *caller
		obs classifyObs
	}
	byVersion := map[uint64][]answer{}
	for _, cl := range p.callers {
		for _, o := range cl.obs {
			byVersion[o.version] = append(byVersion[o.version], answer{cl, o})
		}
	}
	test, train := p.r.TestFeat, p.r.TrainFeat
	wrong, checked := 0, 0
	for v := uint64(1); v <= uint64(1+len(p.applied)); v++ {
		for _, a := range byVersion[v] {
			for j, idx := range a.cl.reqs[a.obs.req] {
				if j >= len(a.obs.preds) || ref.Predict(test[idx].X) != a.obs.preds[j] {
					wrong++
				}
				checked++
			}
		}
		delete(byVersion, v)
		if int(v) <= len(p.applied) {
			s := train[p.applied[v-1]]
			ref.TrainSample(s.X, s.Y)
		}
	}
	p.b.rep.check(wrong == 0, "serve_mixed: %d of %d classify answers differ from the reference at their version", wrong, checked)
	p.b.rep.check(len(byVersion) == 0, "serve_mixed: answers name %d versions that were never cut", len(byVersion))
}

// engineTimings times the two engine calls behind serving on a
// same-seed model: cutting a weight version, and one batch prediction
// at the batch fill serving observed.
func (b *bench) engineTimings(m *core.Model, test []metrics.Sample, fill int) error {
	g := m.Group()
	for range 100 {
		s := b.engTk.Begin()
		v, err := g.Snapshot()
		b.engTk.End(s, "snapshot")
		if err != nil {
			return err
		}
		v.Release()
	}
	v, err := g.Snapshot()
	if err != nil {
		return err
	}
	defer v.Release()
	batch := test[:max(1, min(fill, len(test)))]
	for range 100 {
		s := b.engTk.Begin()
		_, err := v.Predict(batch)
		b.engTk.End(s, "predict")
		if err != nil {
			return err
		}
	}
	eng, err := spanDurations(b.engTk)
	if err != nil {
		return err
	}
	b.rep.set("engine.snapshot_us", median(eng["snapshot"])/1e3)
	b.rep.set("engine.predict_ms", median(eng["predict"])/1e6)
	return nil
}

// waitVersions polls the tenant's counters until the trainer has
// finished n samples, each applied and its version cut (or failed to
// cut), and returns them.
func waitVersions(h http.Handler, n int) (map[string]int64, error) {
	give := time.Now().Add(60 * time.Second)
	for {
		code, resp := call(h, http.MethodGet, tenantPath+"/counters", nil)
		var out struct{ Counters map[string]int64 }
		if code != http.StatusOK || json.Unmarshal(resp, &out) != nil {
			return nil, fmt.Errorf("reading the tenant's counters: %d %s", code, resp)
		}
		done := out.Counters["versions.cut"] + out.Counters["versions.errors"]
		if done >= int64(n) {
			return out.Counters, nil
		}
		if time.Now().After(give) {
			return nil, fmt.Errorf("trainer finished %d of %d samples in 60s", done, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}
