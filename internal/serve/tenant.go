package serve

import (
	"errors"
	"sync"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/trace"
)

var (
	// errGated is returned by admission.submit while the training
	// queue's gate is closed; handlers translate it to 429 + Retry-After.
	errGated = errors.New("serve: training admission gated")
	// errClosed is returned once the tenant has been deleted.
	errClosed = errors.New("serve: tenant closed")
)

// versionRef refcounts one published WeightVersion: the tenant's
// current pointer holds one reference, every in-flight classify or
// accuracy evaluation holds another, and the version's replicas are
// recycled (WeightVersion.Release) only when the last holder drops —
// so a version being swapped out mid-request keeps serving that
// request from frozen weights.
type versionRef struct {
	v    *engine.WeightVersion
	refs int
}

// tenant is one hosted model instance: a core.Model whose master
// trains online from its admission queue while classify traffic
// is answered from refcounted weight-version snapshots, plus the
// tenant's private observability (counters, latency histograms,
// optional tracer).
type tenant struct {
	name  string
	topts TenantOptions
	model *core.Model
	grp   *engine.Group

	// verMu guards cur and the refcount of every issued versionRef.
	verMu sync.Mutex
	cur   *versionRef

	bat       *batcher
	adm       *admission
	trainDone chan struct{}

	ctr         *metrics.Counters
	classifyLat *metrics.Histogram
	trainLat    *metrics.Histogram
	tracer      *trace.Tracer
}

// newTenant builds the model (dataset generation + conv pretraining —
// the expensive part), cuts version 1 from the pretrained weights and
// starts the micro-batcher and training-loop goroutines.
func newTenant(name string, topts TenantOptions) (*tenant, error) {
	copts, err := topts.coreOptions()
	if err != nil {
		return nil, err
	}
	var tr *trace.Tracer
	if topts.Trace {
		tr = trace.New()
		copts.Trace = tr
	}
	m, err := core.Build(copts)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		name:        name,
		topts:       topts,
		model:       m,
		grp:         m.Group(),
		ctr:         metrics.NewCounters(),
		classifyLat: &metrics.Histogram{},
		trainLat:    &metrics.Histogram{},
		tracer:      tr,
	}
	v, err := t.grp.Snapshot()
	if err != nil {
		m.Close()
		return nil, err
	}
	t.cur = &versionRef{v: v, refs: 1}
	low, high := topts.watermarks()
	t.adm = newAdmission(low, high, t.ctr, tr)
	t.bat = newBatcher(topts.batchCap())
	go t.bat.run(t.serveBatch)
	t.trainDone = make(chan struct{})
	go t.trainLoop()
	return t, nil
}

// trainLoop is the tenant's single training goroutine: it pulls
// admitted samples off the admission queue, applies each to
// the master online, then cuts and publishes a fresh weight version —
// so every published version corresponds to an exact number of applied
// updates and classify never reads half-applied weights.
func (t *tenant) trainLoop() {
	defer close(t.trainDone)
	for {
		s, ok := t.adm.next()
		if !ok {
			return
		}
		start := time.Now()
		t.model.TrainSample(s.X, s.Y)
		t.trainLat.Observe(time.Since(start).Nanoseconds())
		t.ctr.Add("train.applied", 1)
		v, err := t.grp.Snapshot()
		if err != nil {
			t.ctr.Add("versions.errors", 1)
			continue
		}
		t.swapVersion(v)
		t.ctr.Add("versions.cut", 1)
	}
}

// swapVersion publishes v as the tenant's current version and drops
// the tenant's reference on the previous one.
func (t *tenant) swapVersion(v *engine.WeightVersion) {
	t.verMu.Lock()
	old := t.cur
	t.cur = &versionRef{v: v, refs: 1}
	t.verMu.Unlock()
	if old != nil {
		t.unref(old)
	}
}

// acquire takes a reference on the current version for the duration of
// one request. Callers must pair it with unref.
func (t *tenant) acquire() (*versionRef, error) {
	t.verMu.Lock()
	defer t.verMu.Unlock()
	if t.cur == nil {
		return nil, errClosed
	}
	t.cur.refs++
	return t.cur, nil
}

// unref drops one reference; the last holder recycles the version's
// replicas back into the group's snapshot free list.
func (t *tenant) unref(r *versionRef) {
	t.verMu.Lock()
	r.refs--
	last := r.refs == 0
	t.verMu.Unlock()
	if last {
		r.v.Release()
	}
}

// version returns the currently published version number (0 if the
// tenant is closed).
func (t *tenant) version() uint64 {
	t.verMu.Lock()
	defer t.verMu.Unlock()
	if t.cur == nil {
		return 0
	}
	return t.cur.v.Version()
}

// retryAfter estimates the 429 Retry-After seconds: the time for the
// trainer to drain the admission band at the observed per-sample
// training latency (p50), rounded up and clamped to [1, 30].
func (t *tenant) retryAfter() int {
	p50 := t.trainLat.Quantile(0.50)
	if p50 <= 0 {
		return 1
	}
	drain := int64(t.adm.high - t.adm.low)
	sec := (p50*drain + int64(time.Second) - 1) / int64(time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return int(sec)
}

// serveBatch answers one coalesced micro-batch from a single weight
// version: all vectors — across every coalesced request — are
// classified by one pool-sharded Predict on the same frozen snapshot,
// so no request ever observes torn weights and coalescing cannot
// change any individual answer.
func (t *tenant) serveBatch(batch []classifyReq, size int) {
	ref, err := t.acquire()
	if err != nil {
		for _, r := range batch {
			r.resp <- classifyResp{err: err}
		}
		return
	}
	samples := make([]metrics.Sample, 0, size)
	for _, r := range batch {
		for _, x := range r.xs {
			samples = append(samples, metrics.Sample{X: x})
		}
	}
	start := time.Now()
	preds, perr := ref.v.Predict(samples)
	t.classifyLat.Observe(time.Since(start).Nanoseconds())
	version := ref.v.Version()
	t.unref(ref)
	t.ctr.Add("classify.batches", 1)
	t.ctr.Add("classify.samples", int64(size))
	if len(batch) > 1 {
		t.ctr.Add("classify.coalesced", 1)
	}
	if perr != nil {
		for _, r := range batch {
			r.resp <- classifyResp{err: perr}
		}
		return
	}
	i := 0
	for _, r := range batch {
		n := len(r.xs)
		r.resp <- classifyResp{preds: preds[i : i+n], version: version}
		i += n
	}
}

// counters publishes the histograms into the registry and returns a
// snapshot — the payload of the counters endpoints.
func (t *tenant) counters() map[string]int64 {
	t.classifyLat.Publish(t.ctr, "classify.latency_ns")
	t.trainLat.Publish(t.ctr, "train.latency_ns")
	t.ctr.Set("version", int64(t.version()))
	return t.ctr.Snapshot()
}

// close tears the tenant down gracefully: no new train submissions,
// every already-admitted sample still trains (the trainLoop drains the
// admission queue to the end), then the batcher stops, the current
// version is dropped and the model is closed. Idempotent.
func (t *tenant) close() {
	if !t.adm.close() {
		return
	}
	<-t.trainDone // trainLoop saw the queue end: all admitted samples applied
	t.bat.close() // in-flight classifies answered, dispatcher joined

	t.verMu.Lock()
	cur := t.cur
	t.cur = nil
	t.verMu.Unlock()
	if cur != nil {
		t.unref(cur)
	}
	t.model.Close()
}
