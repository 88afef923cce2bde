package stream

import (
	"testing"
	"time"

	"emstdp/internal/metrics"
)

// tagged builds n samples whose label encodes their arrival position, so
// order and multiset properties are checkable downstream.
func tagged(n int) []metrics.Sample {
	out := make([]metrics.Sample, n)
	for i := range out {
		out[i] = metrics.Sample{X: []float64{float64(i)}, Y: i}
	}
	return out
}

// drain pulls src until exhaustion and returns the emitted labels.
func drain(src Source) []int {
	var out []int
	for {
		s, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, s.Y)
	}
}

func TestSliceSourceReplay(t *testing.T) {
	got := drain(NewSliceSource(tagged(5)))
	if len(got) != 5 {
		t.Fatalf("drained %d samples, want 5", len(got))
	}
	for i, y := range got {
		if y != i {
			t.Fatalf("replay sample %d has label %d, want %d (slice order)", i, y, i)
		}
	}
}

func TestChannelDeliversEverythingInOrderUnderBackpressure(t *testing.T) {
	const n = 100
	ch := NewChannel(NewSliceSource(tagged(n)), Watermarks{Low: 2, High: 4})
	var got []int
	for {
		s, ok := ch.Next()
		if !ok {
			break
		}
		got = append(got, s.Y)
		if len(got) == 1 {
			// Give the producer time to run into the high watermark so
			// the stall path is exercised.
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(got) != n {
		t.Fatalf("delivered %d samples, want %d", len(got), n)
	}
	for i, y := range got {
		if y != i {
			t.Fatalf("sample %d has label %d: channel must preserve upstream order", i, y)
		}
	}
	st := ch.Stats()
	if st.Produced != n || st.Consumed != n || st.Dropped != 0 {
		t.Fatalf("stats %+v: want produced=consumed=%d, dropped=0", st, n)
	}
	if st.Stalls == 0 || st.StalledNs == 0 {
		t.Fatalf("stats %+v: producer never hit the high watermark with a 4-deep buffer over %d samples", st, n)
	}
}

func TestChannelStopDropsBufferedSamples(t *testing.T) {
	ch := NewChannel(NewSliceSource(tagged(50)), Watermarks{Low: 4, High: 16})
	for i := 0; i < 5; i++ {
		if _, ok := ch.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	ch.Stop()
	if _, ok := ch.Next(); ok {
		t.Fatal("Next delivered after Stop")
	}
	st := ch.Stats()
	if st.Consumed != 5 {
		t.Fatalf("consumed %d, want 5", st.Consumed)
	}
	if st.Dropped == 0 {
		t.Fatal("Stop with a full buffer must report dropped samples")
	}
	if st.Produced != st.Consumed+st.Dropped {
		t.Fatalf("stats %+v: produced != consumed + dropped after Stop", st)
	}
}

// TestChannelPublishCounters exercises satellite observability: a
// channel's stall/watermark counters land in a metrics.Counters
// registry under the given prefix, and re-publishing overwrites rather
// than double-counts.
func TestChannelPublishCounters(t *testing.T) {
	ch := NewChannel(NewSliceSource(tagged(12)), Watermarks{Low: 1, High: 3})
	reg := metrics.NewCounters()
	got := drain(ch)
	if len(got) != 12 {
		t.Fatalf("drained %d samples, want 12", len(got))
	}
	ch.Publish(reg, "stream.train")
	if n := reg.Get("stream.train.produced"); n != 12 {
		t.Fatalf("produced counter = %d, want 12", n)
	}
	if n := reg.Get("stream.train.consumed"); n != 12 {
		t.Fatalf("consumed counter = %d, want 12", n)
	}
	if reg.Get("stream.train.wm_low") != 1 || reg.Get("stream.train.wm_high") != 3 {
		t.Fatalf("watermark gauges = %d/%d, want 1/3",
			reg.Get("stream.train.wm_low"), reg.Get("stream.train.wm_high"))
	}
	// With High = 3 and 12 samples pulled by a consumer that starts
	// draining after the producer runs ahead, the gate must have engaged;
	// the stall counters are the signal the orchestrator reads.
	st := ch.Stats()
	if st.Stalls > 0 && reg.Get("stream.train.stalls") != st.Stalls {
		t.Fatalf("stalls counter = %d, want %d", reg.Get("stream.train.stalls"), st.Stalls)
	}
	// Re-publish the same snapshot: Set semantics, not Add.
	ch.Publish(reg, "stream.train")
	if n := reg.Get("stream.train.produced"); n != 12 {
		t.Fatalf("re-published produced = %d, want 12 (snapshot, not doubled)", n)
	}
	ch.Stop()
}
