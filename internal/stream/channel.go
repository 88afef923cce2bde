package stream

import (
	"sync"
	"time"

	"emstdp/internal/metrics"
	"emstdp/internal/trace"
)

// Watermarks bound a Channel's buffer: the producer fills ahead until
// High samples are in flight, then stalls until the consumer drains the
// buffer back to Low before refilling — the double-buffering hysteresis
// that keeps a training loop fed without unbounded lookahead. High is
// also the channel capacity, so memory is bounded by High samples
// regardless of stream length.
type Watermarks struct {
	Low, High int
}

// DefaultWatermarks returns the double-buffered default: refill at 8,
// cap at 32 in-flight samples.
func DefaultWatermarks() Watermarks { return Watermarks{Low: 8, High: 32} }

// Normalised returns the watermarks clamped to the valid hysteresis
// band NewChannel will actually run with — exported so layers that key
// behaviour off the effective band (e.g. the serving layer's admission
// control and Retry-After estimate) see the same values the channel
// does.
func (w Watermarks) Normalised() Watermarks { return w.normalised() }

// normalised clamps the watermarks to a valid hysteresis band.
func (w Watermarks) normalised() Watermarks {
	if w.High < 1 {
		w = DefaultWatermarks()
	}
	if w.Low < 0 {
		w.Low = 0
	}
	if w.Low >= w.High {
		w.Low = w.High - 1
	}
	return w
}

// Stats are a Channel's cumulative per-stage counters. StalledNs is the
// total time the producer spent gated at the high watermark — non-zero
// stall time with zero consumer wait is the healthy steady state (the
// producer runs ahead of training); the inverse means ingestion is the
// bottleneck.
type Stats struct {
	// Produced counts samples pulled from the upstream source and
	// committed to the buffer.
	Produced int64
	// Consumed counts samples delivered to the consumer.
	Consumed int64
	// Dropped counts buffered samples abandoned by Stop before the
	// consumer took them; Produced == Consumed + Dropped once the pump
	// is stopped or the stream is drained.
	Dropped int64
	// Stalls counts producer gate events (in-flight reached High).
	Stalls int64
	// StalledNs is the total producer time spent waiting for the
	// consumer to drain back to the low watermark.
	StalledNs int64
}

// Publish writes the counters into reg as "<prefix>.produced",
// "<prefix>.consumed", "<prefix>.dropped", "<prefix>.stalls" and
// "<prefix>.stalled_ns". Values are set (not accumulated), so
// re-publishing a later snapshot of the same channel overwrites rather
// than double-counts; a nil registry is a no-op.
func (s Stats) Publish(reg *metrics.Counters, prefix string) {
	reg.Set(prefix+".produced", s.Produced)
	reg.Set(prefix+".consumed", s.Consumed)
	reg.Set(prefix+".dropped", s.Dropped)
	reg.Set(prefix+".stalls", s.Stalls)
	reg.Set(prefix+".stalled_ns", s.StalledNs)
}

// Channel pumps an upstream Source through a bounded Go channel on a
// producer goroutine, applying watermark backpressure. The consumer
// side is itself a Source, so a Channel feeds the engine's training
// entry points directly; unlike plain Sources, the producer generates
// ahead concurrently with the consumer's work.
//
// A Channel owns its upstream source: after NewChannel, the source must
// not be touched except through the Channel. Next is single-consumer.
type Channel struct {
	src Source
	wm  Watermarks
	ch  chan metrics.Sample

	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	gated    bool
	stopped  bool
	stats    Stats

	// track records the watermark lifecycle when tracing is on: one
	// "stall" span per producer gate (the hysteresis wait itself), a
	// "refill" instant when the consumer reopens the gate, and an
	// "inflight" counter sampled at every producer commit. Nil by
	// default (NewChannel) and a no-op when nil.
	track *trace.Track

	// afterRecv is a test-only hook called between a successful receive
	// and the consumer-side accounting in Next — the window the
	// Next/Stop race regression test holds open. Nil in production.
	afterRecv func()

	done chan struct{}
}

// Instrumentation carries a Channel's optional observers. The zero
// value means unobserved — what NewChannel uses.
type Instrumentation struct {
	// Tracer records the watermark lifecycle (stall spans, refill
	// instants, the in-flight counter) on a track named Name.
	Tracer *trace.Tracer
	// Name is the trace track name; "" selects "channel".
	Name string
}

// NewChannel starts pumping src through a buffer bounded by wm
// (zero-value wm selects DefaultWatermarks).
func NewChannel(src Source, wm Watermarks) *Channel {
	return NewChannelObserved(src, wm, Instrumentation{})
}

// NewChannelObserved is NewChannel with observers attached before the
// producer starts, so the pump's first stall is already recorded.
// Observation never changes what the consumer sees: the sample
// sequence is fixed by the upstream source alone.
func NewChannelObserved(src Source, wm Watermarks, ins Instrumentation) *Channel {
	c := &Channel{src: src, wm: wm.normalised()}
	if ins.Tracer != nil {
		name := ins.Name
		if name == "" {
			name = "channel"
		}
		c.track = ins.Tracer.Track(name, 0)
	}
	c.cond = sync.NewCond(&c.mu)
	c.ch = make(chan metrics.Sample, c.wm.High)
	c.done = make(chan struct{})
	go c.produce()
	return c
}

// produce is the pump loop: pull upstream, gate at the high watermark,
// commit to the channel. The in-flight count never exceeds High (the
// channel capacity), so the send below cannot block and the producer
// only ever waits on the watermark gate.
func (c *Channel) produce() {
	defer close(c.done)
	defer close(c.ch)
	for {
		s, ok := c.src.Next()
		if !ok {
			return
		}
		c.mu.Lock()
		if c.gated && !c.stopped {
			c.stats.Stalls++
			t0 := time.Now()
			ts := c.track.Begin()
			for c.gated && !c.stopped {
				c.cond.Wait()
			}
			c.stats.StalledNs += time.Since(t0).Nanoseconds()
			c.track.End(ts, "stall")
		}
		if c.stopped {
			// s was pulled from upstream but never committed to the
			// buffer; it is not counted as produced or dropped.
			c.mu.Unlock()
			return
		}
		c.inflight++
		if c.inflight >= c.wm.High {
			c.gated = true
		}
		c.stats.Produced++
		c.track.Counter("inflight", int64(c.inflight))
		c.mu.Unlock()
		c.ch <- s
	}
}

// Next delivers the next sample, blocking until the producer commits one
// or the stream ends.
func (c *Channel) Next() (metrics.Sample, bool) {
	s, ok := <-c.ch
	if !ok {
		return metrics.Sample{}, false
	}
	if c.afterRecv != nil {
		c.afterRecv()
	}
	c.mu.Lock()
	if c.stopped {
		// Stop raced in between the receive above and this accounting:
		// it has reset (or is about to reset) the in-flight count, so
		// decrementing here would drive inflight below zero. The sample
		// did reach the consumer, so conservation still counts it as
		// consumed; everything else belongs to the stream Stop tore
		// down.
		c.stats.Consumed++
		c.mu.Unlock()
		return s, true
	}
	c.inflight--
	c.stats.Consumed++
	if c.gated && c.inflight <= c.wm.Low {
		c.gated = false
		c.track.Instant("refill")
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	return s, true
}

// Stop halts the producer and discards any samples still buffered
// (counted as Dropped). Idempotent; Next returns ok=false afterwards.
func (c *Channel) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.stopped = true
	c.cond.Broadcast()
	c.mu.Unlock()
	<-c.done
	n := int64(0)
	for range c.ch {
		n++
	}
	c.mu.Lock()
	c.stats.Dropped += n
	c.inflight = 0
	c.mu.Unlock()
}

// Gated reports whether the producer is currently stalled at the high
// watermark — the hysteresis signal admission control keys off: once
// true it stays true until the consumer drains the buffer back to the
// low watermark, so a gated channel means "the pipeline is full and
// will stay full for at least High-Low consumed samples". False on a
// stopped channel.
func (c *Channel) Gated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gated && !c.stopped
}

// Inflight returns the number of produced-but-unconsumed samples
// currently buffered.
func (c *Channel) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Stats returns a snapshot of the cumulative counters.
func (c *Channel) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Publish snapshots the channel's counters plus its watermark
// configuration ("<prefix>.wm_low", "<prefix>.wm_high") into reg — one
// registry holding every backpressure signal the orchestrator's
// issue-depth decisions are based on.
func (c *Channel) Publish(reg *metrics.Counters, prefix string) {
	c.Stats().Publish(reg, prefix)
	reg.Set(prefix+".wm_low", int64(c.wm.Low))
	reg.Set(prefix+".wm_high", int64(c.wm.High))
}
