// Package stream is the ingestion subsystem between datasets and the
// execution engine: instead of materialising a whole split as a
// []metrics.Sample slice, training pulls samples one at a time from a
// Source — a replayed slice or any composition of stages — through a bounded channel with low/high
// watermark backpressure.
//
// The pipeline shape mirrors a host streaming batches to an accelerator
// with double buffering: a producer goroutine fills the channel until it
// reaches the high watermark, then stalls until the consumer drains it
// back to the low watermark, so the buffer is bounded above by High and
// the consumer (the training hot path) is never starved while the
// producer generates ahead. Per-stage counters (produced, consumed,
// dropped, stalled-ns) make the pipeline's behaviour observable.
//
// Every Source is deterministic given its construction parameters: a
// streamed training run realises one well-defined sample order, and
// training is a function of that order alone — engine.Group.TrainStream
// or TrainPipelined over the bounded channel is bit-identical to the
// same call over a SliceSource of the order materialised.
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
	// Reset rewinds the source for another pass. Stages that re-order
	// (ShuffleWindow) advance to their next per-epoch order on Reset
	// rather than replaying the previous one.
	Reset()
	// Len returns the number of samples remaining before exhaustion, or
	// -1 when unknown (unbounded generators).
	Len() int
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

// Reset rewinds to the start of the slice.
func (s *SliceSource) Reset() { s.i = 0 }

// Len returns the number of samples not yet emitted.
func (s *SliceSource) Len() int { return len(s.samples) - s.i }
