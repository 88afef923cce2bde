package stream

import (
	"runtime"
	"sync"
	"testing"

	"emstdp/internal/metrics"
)

// FuzzChannel drives a Channel with fuzzer-chosen watermarks and a
// fuzzer-chosen interleaving of consumer actions — consume bursts,
// consumer stalls (which push the producer into its watermark gate),
// mid-stream Stop, a Stop racing Next from another goroutine — and
// checks the accounting invariants the rest of the system leans on:
//
//   - conservation: once the pump is stopped, every sample the producer
//     committed was either delivered or deliberately dropped
//     (Produced == Consumed + Dropped), never lost or duplicated;
//   - order: delivered samples are exactly a prefix of the upstream
//     order — the channel may cut the stream short (Stop) but
//     never reorders or skips. While a concurrent Stop is in flight its
//     drain legitimately competes with the consumer for buffered
//     samples, so the check relaxes to "strictly increasing";
//   - bounds: the in-flight count never exceeds the high watermark AND
//     never goes negative — the consumer-side accounting racing Stop
//     used to decrement it below zero after Stop reset it (the PR-10
//     bugfix), corrupting the refill gate;
//   - memory stays bounded no matter how the producer and consumer race.
//
// The script bytes make the schedule deterministic on the consumer side
// while the producer goroutine (and any spawned Stop) races freely, so
// any interleaving bug surfaces as a reproducible counterexample.
func FuzzChannel(f *testing.F) {
	f.Add(uint8(12), uint8(2), uint8(6), []byte{0, 0, 1, 0, 0, 0, 2})
	f.Add(uint8(40), uint8(0), uint8(1), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add(uint8(7), uint8(4), uint8(4), []byte{1, 2, 0, 0, 0})
	f.Add(uint8(0), uint8(1), uint8(8), []byte{0, 2})
	f.Add(uint8(33), uint8(200), uint8(3), []byte{1, 0, 0, 0, 1, 0, 0, 2, 0})
	// The concurrent-Stop arm: fill, then race a Stop against consumes —
	// the schedule that used to drive inflight negative.
	f.Add(uint8(20), uint8(1), uint8(4), []byte{0, 0, 3, 0, 0, 0})
	f.Add(uint8(9), uint8(0), uint8(2), []byte{3, 3, 0, 0, 0, 3, 0})

	f.Fuzz(func(t *testing.T, nSamples, low, high uint8, script []byte) {
		n := int(nSamples)
		samples := make([]metrics.Sample, n)
		for i := range samples {
			samples[i] = metrics.Sample{X: []float64{float64(i)}, Y: i}
		}
		ch := NewChannel(NewSliceSource(samples), Watermarks{Low: int(low), High: int(high)})

		var stops sync.WaitGroup
		stopRacing := false // a spawned Stop may still be in flight
		next := 0           // expected upstream index of the next delivery
		for _, op := range script {
			switch op % 4 {
			case 0: // consume one sample, verifying order
				s, ok := ch.Next()
				if !ok {
					if next != n && !stopRacing {
						t.Fatalf("pass ended after %d of %d samples without Stop", next, n)
					}
					continue
				}
				if stopRacing {
					// Stop's drain competes for buffered samples, so the
					// consumer may see gaps — but never reordering.
					if s.Y < next {
						t.Fatalf("reordered under concurrent Stop: got sample %d after %d", s.Y, next)
					}
					next = s.Y + 1
					continue
				}
				if s.Y != next {
					t.Fatalf("out of order: got sample %d, want %d", s.Y, next)
				}
				next++
			case 1: // consumer stall: let the producer run into its gate
				runtime.Gosched()
			case 2: // abandon the stream mid-flight
				stops.Wait()
				ch.Stop()
				stopRacing = false
				next = n // nothing more may be delivered
			case 3: // Stop racing the consumer from another goroutine
				stops.Add(1)
				stopRacing = true
				go func() {
					defer stops.Done()
					ch.Stop()
				}()
			}
			if in := ch.wm.High; in < 1 {
				t.Fatalf("normalised high watermark %d < 1", in)
			}
			ch.mu.Lock()
			in := ch.inflight
			ch.mu.Unlock()
			if in > ch.wm.High {
				t.Fatalf("in-flight %d exceeds high watermark %d", in, ch.wm.High)
			}
			if in < 0 {
				t.Fatalf("in-flight %d went negative (Next raced Stop)", in)
			}
		}
		stops.Wait()
		ch.Stop()

		ch.mu.Lock()
		in := ch.inflight
		ch.mu.Unlock()
		if in != 0 {
			t.Fatalf("in-flight %d after final Stop, want 0", in)
		}
		st := ch.Stats()
		if st.Produced != st.Consumed+st.Dropped {
			t.Fatalf("conservation broken: produced %d != consumed %d + dropped %d (stats %+v)",
				st.Produced, st.Consumed, st.Dropped, st)
		}
		if st.Consumed < 0 || st.Dropped < 0 || st.Stalls < 0 || st.StalledNs < 0 {
			t.Fatalf("negative counter: %+v", st)
		}
		// A finite upstream bounds production.
		if st.Produced > int64(n) {
			t.Fatalf("produced %d exceeds the %d upstream samples", st.Produced, n)
		}
	})
}
