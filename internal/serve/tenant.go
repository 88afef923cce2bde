package serve

import (
	"errors"
	"sync"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/stream"
	"emstdp/internal/trace"
)

var (
	// errGated is returned by submitTrain when the training stream is
	// at its high watermark; handlers translate it to 429 + Retry-After.
	errGated = errors.New("serve: training admission gated")
	// errClosed is returned once the tenant has been deleted.
	errClosed = errors.New("serve: tenant closed")
)

// pushSource adapts the handler-push world onto the stream.Source pull
// contract: Next blocks on the submission channel until a handler
// pushes a sample or the tenant closes the channel — the watermark
// hysteresis is the part of the Channel contract serving leans on.
type pushSource struct{ ch chan metrics.Sample }

func (p pushSource) Next() (metrics.Sample, bool) { s, ok := <-p.ch; return s, ok }

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
// trains online from a watermark-gated stream while classify traffic
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

	bat *batcher

	// trainMu guards closed and the push channel: submissions hold the
	// read side so close (write side) cannot close the channel under a
	// send in flight.
	trainMu   sync.RWMutex
	closed    bool
	trainSrc  chan metrics.Sample
	trainCh   *stream.Channel
	trainDone chan struct{}
	wm        stream.Watermarks

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
		wm:          topts.watermarks(),
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
	t.trainSrc = make(chan metrics.Sample, t.wm.High)
	t.trainCh = stream.NewChannelObserved(pushSource{t.trainSrc}, t.wm, stream.Instrumentation{
		Tracer: tr,
		Name:   "train-admission",
	})
	t.bat = newBatcher(topts.batchCap())
	go t.bat.run(t.serveBatch)
	t.trainDone = make(chan struct{})
	go t.trainLoop()
	return t, nil
}

// trainLoop is the tenant's single training goroutine: it pulls
// admitted samples off the watermark-gated channel, applies each to
// the master online, then cuts and publishes a fresh weight version —
// so every published version corresponds to an exact number of applied
// updates and classify never reads half-applied weights.
func (t *tenant) trainLoop() {
	defer close(t.trainDone)
	for {
		s, ok := t.trainCh.Next()
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

// submitTrain pushes samples onto the training stream. The channel's
// watermark hysteresis is the admission decision: a gated stream (or a
// full buffer) rejects with errGated, and the accepted count reports
// how much of a partially-admitted batch got in. Never blocks — the
// backpressure is surfaced to the client as 429, not as a hung POST.
func (t *tenant) submitTrain(samples []metrics.Sample) (int, error) {
	t.trainMu.RLock()
	defer t.trainMu.RUnlock()
	if t.closed {
		return 0, errClosed
	}
	if t.trainCh.Gated() {
		t.ctr.Add("train.rejected", int64(len(samples)))
		return 0, errGated
	}
	accepted := 0
	for _, s := range samples {
		select {
		case t.trainSrc <- s:
			accepted++
		default:
			t.ctr.Add("train.accepted", int64(accepted))
			t.ctr.Add("train.rejected", int64(len(samples)-accepted))
			return accepted, errGated
		}
	}
	t.ctr.Add("train.accepted", int64(accepted))
	return accepted, nil
}

// retryAfter estimates the 429 Retry-After seconds: the time for the
// trainer to drain the admission band at the observed per-sample
// training latency (p50), rounded up and clamped to [1, 30].
func (t *tenant) retryAfter() int {
	p50 := t.trainLat.Quantile(0.50)
	if p50 <= 0 {
		return 1
	}
	drain := int64(t.wm.High - t.wm.Low + cap(t.trainSrc))
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

// counters publishes the histograms and stream stats into the registry
// and returns a snapshot — the payload of the counters endpoints.
func (t *tenant) counters() map[string]int64 {
	t.classifyLat.Publish(t.ctr, "classify.latency_ns")
	t.trainLat.Publish(t.ctr, "train.latency_ns")
	t.trainCh.Publish(t.ctr, "train.channel")
	t.ctr.Set("version", int64(t.version()))
	return t.ctr.Snapshot()
}

// close tears the tenant down gracefully: no new train submissions,
// every already-admitted sample still trains (the producer drains the
// push channel into the stream, the trainLoop consumes to the end),
// then the batcher stops, the current version is dropped and the model
// is closed — which joins any in-flight background evaluation (the
// Group.Close contract this PR fixed). Idempotent.
func (t *tenant) close() {
	t.trainMu.Lock()
	if t.closed {
		t.trainMu.Unlock()
		return
	}
	t.closed = true
	close(t.trainSrc)
	t.trainMu.Unlock()

	<-t.trainDone    // trainLoop saw end-of-stream: all admitted samples applied
	t.trainCh.Stop() // producer goroutine joined
	t.bat.close()    // in-flight classifies answered, dispatcher joined

	t.verMu.Lock()
	cur := t.cur
	t.cur = nil
	t.verMu.Unlock()
	if cur != nil {
		t.unref(cur)
	}
	t.model.Close()
}
