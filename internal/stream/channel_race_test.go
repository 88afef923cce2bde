package stream

import (
	"runtime"
	"sync"
	"testing"

	"emstdp/internal/metrics"
)

// TestChannelNextStopRace is the regression test for the PR-10 bugfix:
// a Next that had already received its sample when Stop reset the
// in-flight count to zero used to decrement it afterwards, leaving
// inflight negative — corrupting the refill-gate accounting.
// The afterRecv hook pins the racy window open deterministically: the
// consumer is parked between its receive and its accounting while Stop
// runs to completion, then released — exactly the interleaving that
// used to drive inflight to -1.
func TestChannelNextStopRace(t *testing.T) {
	samples := make([]metrics.Sample, 16)
	for i := range samples {
		samples[i] = metrics.Sample{X: []float64{float64(i)}, Y: i}
	}
	ch := NewChannel(NewSliceSource(samples), Watermarks{Low: 1, High: 4})

	// Wait until the producer is gated with a full buffer, so Stop has
	// samples to drain and the consumer has one to take.
	for {
		ch.mu.Lock()
		gated := ch.gated
		ch.mu.Unlock()
		if gated {
			break
		}
		runtime.Gosched()
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ch.afterRecv = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	nextDone := make(chan struct{})
	var got metrics.Sample
	var ok bool
	go func() {
		defer close(nextDone)
		got, ok = ch.Next()
	}()
	<-entered // the consumer holds its sample, accounting not yet run

	ch.Stop() // completes fully: drains the rest, resets inflight to 0
	close(release)
	<-nextDone

	if !ok || got.Y != 0 {
		t.Fatalf("racing Next returned (%v, %v), want sample 0", got, ok)
	}
	ch.mu.Lock()
	in := ch.inflight
	ch.mu.Unlock()
	if in < 0 {
		t.Fatalf("inflight %d after Next's accounting raced Stop, want 0 (the pre-fix bug)", in)
	}
	if in != 0 {
		t.Fatalf("inflight %d after Stop, want 0", in)
	}
	st := ch.Stats()
	if st.Produced != st.Consumed+st.Dropped {
		t.Fatalf("conservation broken: %+v", st)
	}
}
