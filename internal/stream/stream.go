// Package stream is the pull contract between sample producers and a
// training consumer: the consumer pulls samples one at a time from a
// Source, typically a Channel pumping an upstream Source through a
// bounded buffer with low/high watermark backpressure. The serving
// layer's per-tenant trainer is the production consumer.
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
// A Channel preserves its upstream order, so training from a Channel is
// bit-identical to training on the same samples in upstream order.
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
