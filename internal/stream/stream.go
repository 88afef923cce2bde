// Package stream is the pull contract between sample producers and the
// execution engine: training pulls samples one at a time from a Source
// — a SliceSource replaying a materialised slice, or a Channel pumping
// any Source through a bounded buffer with low/high watermark
// backpressure.
//
// The Channel mirrors a host streaming batches to an accelerator with
// double buffering: a producer goroutine fills the buffer until it
// reaches the high watermark, then stalls until the consumer drains it
// back to the low watermark, so the buffer is bounded above by High and
// the consumer (the training hot path) is never starved while the
// producer generates ahead. Per-stage counters (produced, consumed,
// dropped, stalled-ns) make the pipeline's behaviour observable. The
// serving layer's training admission keys off the watermark gate.
//
// A Channel preserves its upstream order, so engine.Group.TrainStream
// or TrainPipelined over a Channel is bit-identical to the same call
// over a SliceSource of that order.
package stream

import "emstdp/internal/metrics"

// Source is the pull contract of the ingestion pipeline. Sources are not
// safe for concurrent use; a Channel owns its upstream Source and is the
// stage that crosses goroutines.
type Source interface {
	// Next returns the next sample, or ok=false when the stream is
	// exhausted (a finite source) — an unbounded source never returns
	// false.
	Next() (s metrics.Sample, ok bool)
}

// SliceSource replays a materialised dataset in slice order — the bridge
// from the existing []metrics.Sample world into the streaming pipeline.
type SliceSource struct {
	samples []metrics.Sample
	i       int
}

// NewSliceSource wraps samples; the slice is not copied and must not be
// mutated while the source is live.
func NewSliceSource(samples []metrics.Sample) *SliceSource {
	return &SliceSource{samples: samples}
}

// Next returns the next sample in slice order.
func (s *SliceSource) Next() (metrics.Sample, bool) {
	if s.i >= len(s.samples) {
		return metrics.Sample{}, false
	}
	out := s.samples[s.i]
	s.i++
	return out, true
}
