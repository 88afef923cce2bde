package stream

import (
	"testing"
	"time"

	"emstdp/internal/trace"
)

// TestChannelStallSpansMatchStats pins the trace track against the
// aggregate counters: it carries one stall span per producer gate
// event, so the span count equals Stats.Stalls.
func TestChannelStallSpansMatchStats(t *testing.T) {
	const n = 100
	tr := trace.New()
	ch := NewChannelObserved(NewSliceSource(tagged(n)), Watermarks{Low: 2, High: 4},
		Instrumentation{Tracer: tr, Name: "train"})
	delivered := 0
	for {
		_, ok := ch.Next()
		if !ok {
			break
		}
		delivered++
		if delivered == 1 {
			// Let the producer run into the high watermark so the stall
			// path is exercised.
			time.Sleep(5 * time.Millisecond)
		}
	}
	if delivered != n {
		t.Fatalf("delivered %d samples, want %d", delivered, n)
	}
	st := ch.Stats()
	if st.Stalls == 0 {
		t.Fatal("producer never stalled with a 4-deep buffer")
	}

	var track *trace.Track
	for _, tk := range tr.Tracks() {
		if tk.Name() == "train" {
			track = tk
		}
	}
	if track == nil {
		t.Fatal("channel track missing from tracer")
	}
	spans := int64(0)
	for _, e := range track.Events() {
		if e.Kind == trace.KindSpan && e.Name == "stall" {
			spans++
		}
	}
	if track.Dropped() == 0 && spans != st.Stalls {
		t.Fatalf("trace recorded %d stall spans, want %d", spans, st.Stalls)
	}
}

// TestTraceDoesNotPerturbChannel pins the observational contract on the
// channel: an instrumented channel delivers the exact sample sequence of
// an uninstrumented one over the same source.
func TestTraceDoesNotPerturbChannel(t *testing.T) {
	const n = 64
	mk := func(ins Instrumentation) []int {
		ch := NewChannelObserved(NewSliceSource(tagged(n)), Watermarks{Low: 2, High: 4}, ins)
		var got []int
		for {
			s, ok := ch.Next()
			if !ok {
				return got
			}
			got = append(got, s.Y)
		}
	}
	plain := mk(Instrumentation{})
	traced := mk(Instrumentation{Tracer: trace.New()})
	if len(plain) != len(traced) {
		t.Fatalf("lengths diverged under tracing: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("sample %d diverged under tracing: %d vs %d", i, plain[i], traced[i])
		}
	}
}
