package serve

import (
	"sync"
	"time"

	"emstdp/internal/metrics"
	"emstdp/internal/trace"
)

// admission is a tenant's training queue: one buffered channel of
// capacity high between the train handlers and the trainer, behind a
// gate with hysteresis. The gate closes when high samples wait and
// reopens only once the trainer's receives leave at most low, so a
// rejected client knows the queue stays full for at least high−low
// applied samples. The queue never holds more than high samples, so a
// send under an open gate never blocks. Submissions and the gate share
// mu.
//
// It counts into the tenant's registry: train.accepted and
// train.rejected per submitted sample, and train.channel.{produced,
// consumed, stalls, stalled_ns, wm_low, wm_high}, where a stall is one
// closing of the gate and stalled_ns the time the gate stayed closed. A
// traced tenant's train-admission track carries one "stall" span per
// closed interval and an "inflight" counter.
type admission struct {
	low, high int
	q         chan metrics.Sample
	ctr       *metrics.Counters
	track     *trace.Track

	mu      sync.Mutex
	queued  int // admitted and not yet received by the trainer
	gated   bool
	closed  bool
	gatedAt time.Time
	stallTs int64 // the open stall span's trace start
}

func newAdmission(low, high int, ctr *metrics.Counters, tr *trace.Tracer) *admission {
	ctr.Set("train.channel.wm_low", int64(low))
	ctr.Set("train.channel.wm_high", int64(high))
	return &admission{
		low:   low,
		high:  high,
		q:     make(chan metrics.Sample, high),
		ctr:   ctr,
		track: tr.Track("train-admission", 0),
	}
}

// submit admits samples in order until the gate closes and returns how
// many got in, with errGated if any were turned away and errClosed once
// the queue is closed. It never blocks: backpressure reaches the client
// as 429, not as a hung POST.
func (a *admission) submit(samples []metrics.Sample) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, errClosed
	}
	n := 0
	for ; n < len(samples) && !a.gated; n++ {
		a.q <- samples[n] // queued < high = cap(q): cannot block under mu
		a.queued++
		if a.queued >= a.high {
			a.gated = true
			a.gatedAt = time.Now()
			a.stallTs = a.track.Begin()
			a.ctr.Add("train.channel.stalls", 1)
		}
	}
	if n > 0 {
		a.track.Counter("inflight", int64(a.queued))
	}
	a.ctr.Add("train.accepted", int64(n))
	a.ctr.Add("train.channel.produced", int64(n))
	if n < len(samples) {
		a.ctr.Add("train.rejected", int64(len(samples)-n))
		return n, errGated
	}
	return n, nil
}

// next blocks for the next admitted sample, in submission order, and
// reopens the gate once at most low samples are left waiting. ok is
// false once the queue is closed and every admitted sample delivered.
func (a *admission) next() (s metrics.Sample, ok bool) {
	if s, ok = <-a.q; !ok {
		return s, false
	}
	a.mu.Lock()
	a.queued--
	a.ctr.Add("train.channel.consumed", 1)
	if a.gated && a.queued <= a.low {
		a.gated = false
		a.ctr.Add("train.channel.stalled_ns", time.Since(a.gatedAt).Nanoseconds())
		a.track.End(a.stallTs, "stall")
	}
	a.track.Counter("inflight", int64(a.queued))
	a.mu.Unlock()
	return s, true
}

// close turns later submissions away with errClosed while next still
// delivers every admitted sample. It reports whether this call closed
// the queue, so the tenant's teardown runs once.
func (a *admission) close() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.closed = true
	close(a.q)
	return true
}
