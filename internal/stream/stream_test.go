package stream

import (
	"testing"
	"time"

	"emstdp/internal/metrics"
	"emstdp/internal/rng"
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
	src := NewSliceSource(tagged(5))
	if src.Len() != 5 {
		t.Fatalf("Len = %d, want 5", src.Len())
	}
	if got := drain(src); len(got) != 5 {
		t.Fatalf("drained %d samples, want 5", len(got))
	}
	if src.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", src.Len())
	}
	src.Reset()
	got := drain(src)
	for i, y := range got {
		if y != i {
			t.Fatalf("replay sample %d has label %d, want %d (slice order)", i, y, i)
		}
	}
}

// TestShuffleWindowPermutationProperty is the property test: for random
// stream lengths and window sizes — including W = 1 and W >= the stream
// length — the window emits each input exactly once (no drops, no
// duplicates), and W = 1 preserves the input order.
func TestShuffleWindowPermutationProperty(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(60) // includes empty streams
		w := 1 + r.Intn(n+10)
		if trial%5 == 0 {
			w = 1
		}
		if trial%7 == 0 {
			w = n + 1 + r.Intn(5) // W >= stream length: full shuffle
		}
		win := NewShuffleWindow(NewSliceSource(tagged(n)), w, uint64(trial))
		got := drain(win)
		if len(got) != n {
			t.Fatalf("n=%d w=%d: emitted %d samples", n, w, len(got))
		}
		seen := make([]bool, n)
		for _, y := range got {
			if y < 0 || y >= n || seen[y] {
				t.Fatalf("n=%d w=%d: label %d dropped/duplicated in %v", n, w, y, got)
			}
			seen[y] = true
		}
		if w == 1 {
			for i, y := range got {
				if y != i {
					t.Fatalf("W=1 must be the identity order, got %v", got)
				}
			}
		}
		// A second pass (next epoch) is also a permutation.
		win.Reset()
		if got2 := drain(win); len(got2) != n {
			t.Fatalf("n=%d w=%d: epoch 1 emitted %d samples", n, w, len(got2))
		}
	}
}

func TestShuffleWindowDeterministicPerEpoch(t *testing.T) {
	mk := func() *ShuffleWindow {
		return NewShuffleWindow(NewSliceSource(tagged(40)), 8, 7)
	}
	a, b := mk(), mk()
	e0a, e0b := drain(a), drain(b)
	for i := range e0a {
		if e0a[i] != e0b[i] {
			t.Fatalf("same (seed, epoch) realised different orders at %d: %v vs %v", i, e0a, e0b)
		}
	}
	a.Reset()
	b.Reset()
	e1a, e1b := drain(a), drain(b)
	same := true
	for i := range e1a {
		if e1a[i] != e1b[i] {
			t.Fatalf("epoch 1 orders differ at %d", i)
		}
		if e1a[i] != e0a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("epoch 1 realised the same order as epoch 0; Reset must advance the seeded order")
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

func TestChannelResetReplaysAndAccumulatesCounters(t *testing.T) {
	ch := NewChannel(NewSliceSource(tagged(10)), Watermarks{})
	if got := drain(ch); len(got) != 10 {
		t.Fatalf("pass 0 delivered %d", len(got))
	}
	if ch.Len() != 0 {
		t.Fatalf("Len after drain = %d", ch.Len())
	}
	ch.Reset()
	if ch.Len() != 10 {
		t.Fatalf("Len after Reset = %d, want 10", ch.Len())
	}
	got := drain(ch)
	for i, y := range got {
		if y != i {
			t.Fatalf("pass 1 sample %d has label %d", i, y)
		}
	}
	if st := ch.Stats(); st.Consumed != 20 {
		t.Fatalf("counters must accumulate across passes, consumed = %d", st.Consumed)
	}
}

// TestChannelOverShuffleWindow pins the composed pipeline the trainer
// uses: slice → window → bounded channel is still a permutation per
// pass, and Reset advances the window epoch through the channel.
func TestChannelOverShuffleWindow(t *testing.T) {
	const n = 64
	ch := NewChannel(NewShuffleWindow(NewSliceSource(tagged(n)), 16, 3), Watermarks{Low: 2, High: 8})
	check := func(pass int) []int {
		got := drain(ch)
		if len(got) != n {
			t.Fatalf("pass %d delivered %d samples", pass, len(got))
		}
		seen := make([]bool, n)
		for _, y := range got {
			if seen[y] {
				t.Fatalf("pass %d duplicated label %d", pass, y)
			}
			seen[y] = true
		}
		return got
	}
	e0 := check(0)
	ch.Reset()
	e1 := check(1)
	same := true
	for i := range e0 {
		if e0[i] != e1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Reset through the channel did not advance the window epoch")
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
	// Re-publish after more traffic: Set semantics, not Add.
	ch.Reset()
	drain(ch)
	ch.Publish(reg, "stream.train")
	if n := reg.Get("stream.train.produced"); n != 24 {
		t.Fatalf("re-published produced = %d, want 24 (cumulative snapshot, not doubled)", n)
	}
	ch.Stop()
}
