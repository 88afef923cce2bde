package serve

import (
	"errors"
	"testing"
	"time"

	"emstdp/internal/metrics"
	"emstdp/internal/trace"
)

// TestAdmissionGate drives a training queue directly, with no trainer
// goroutine, through one whole gate cycle: a batch larger than the
// band is admitted up to AdmitHigh and the rest rejected and counted;
// the gate stays shut while receives leave more than AdmitLow waiting;
// the receive that leaves AdmitLow reopens it and accounts the closed
// interval as one stall; samples come out in submission order; and
// after close every queued sample is still delivered before ok=false.
// It runs untraced and traced: tracing records the gate's stall span
// and in-flight counter and changes nothing else.
func TestAdmissionGate(t *testing.T) {
	t.Run("untraced", func(t *testing.T) { testAdmissionGate(t, nil) })
	t.Run("traced", func(t *testing.T) { testAdmissionGate(t, trace.New()) })
}

func testAdmissionGate(t *testing.T, tr *trace.Tracer) {
	const low, high = 2, 5
	ctr := metrics.NewCounters()
	a := newAdmission(low, high, ctr, tr)
	samples := make([]metrics.Sample, 8)
	for i := range samples {
		samples[i] = metrics.Sample{X: []float64{float64(i)}, Y: i}
	}
	want := func(key string, v int64) {
		t.Helper()
		if got := ctr.Get(key); got != v {
			t.Fatalf("%s = %d, want %d", key, got, v)
		}
	}
	receive := func(y int) {
		t.Helper()
		s, ok := a.next()
		if !ok || s.Y != y {
			t.Fatalf("next = (label %d, %v), want label %d: the queue must keep submission order", s.Y, ok, y)
		}
	}
	shut := func(when string) {
		t.Helper()
		if n, err := a.submit(samples[7:]); n != 0 || !errors.Is(err, errGated) {
			t.Fatalf("%s: submit = (%d, %v), want (0, errGated)", when, n, err)
		}
	}

	n, err := a.submit(samples)
	if n != high || !errors.Is(err, errGated) {
		t.Fatalf("oversized batch: submit = (%d, %v), want (%d, errGated)", n, err, high)
	}
	want("train.accepted", high)
	want("train.rejected", int64(len(samples)-high))
	want("train.channel.produced", high)
	want("train.channel.stalls", 1)
	want("train.channel.wm_low", low)
	want("train.channel.wm_high", high)

	shut("at AdmitHigh")
	rejected := int64(len(samples) - high + 1)
	for y := 0; y < high-low-1; y++ {
		receive(y)
		shut("above AdmitLow")
		rejected++
	}
	want("train.rejected", rejected)
	want("train.channel.stalled_ns", 0)
	time.Sleep(time.Millisecond)
	receive(high - low - 1) // leaves AdmitLow waiting: the gate reopens
	want("train.channel.stalls", 1)
	if ns := ctr.Get("train.channel.stalled_ns"); ns <= 0 {
		t.Fatalf("train.channel.stalled_ns = %d after a closed interval, want > 0", ns)
	}

	if n, err := a.submit(samples[5:7]); n != 2 || err != nil {
		t.Fatalf("submit after reopen = (%d, %v), want (2, nil)", n, err)
	}
	if !a.close() || a.close() {
		t.Fatal("close must report true once, then false")
	}
	if n, err := a.submit(samples[7:]); n != 0 || !errors.Is(err, errClosed) {
		t.Fatalf("submit after close = (%d, %v), want (0, errClosed)", n, err)
	}
	for y := high - low; y < 7; y++ {
		receive(y)
	}
	if _, ok := a.next(); ok {
		t.Fatal("next delivered past the end of a closed, drained queue")
	}
	want("train.channel.produced", 7)
	want("train.channel.consumed", 7)
	want("train.channel.stalls", 1)
	if tr == nil {
		return
	}

	var stalls, inflight int
	for _, tk := range tr.Tracks() {
		if tk.Name() != "train-admission" {
			continue
		}
		for _, e := range tk.Events() {
			switch {
			case e.Kind == trace.KindSpan && e.Name == "stall":
				stalls++
			case e.Kind == trace.KindCounter && e.Name == "inflight":
				inflight++
			}
		}
	}
	if stalls != 1 || inflight == 0 {
		t.Fatalf("train-admission track: %d stall spans and %d inflight samples, want 1 and > 0", stalls, inflight)
	}
}

// TestWatermarksDefaultsAndClamping pins the admission band a tenant
// runs with: an unset or non-positive AdmitHigh selects 8/32, and
// AdmitLow is clamped into [0, AdmitHigh).
func TestWatermarksDefaultsAndClamping(t *testing.T) {
	for _, c := range []struct{ low, high, wantLow, wantHigh int }{
		{0, 0, 8, 32},
		{5, 0, 8, 32},
		{5, -3, 8, 32},
		{1, 2, 1, 2},
		{-4, 6, 0, 6},
		{9, 4, 3, 4},
		{0, 1, 0, 1},
	} {
		low, high := TenantOptions{AdmitLow: c.low, AdmitHigh: c.high}.watermarks()
		if low != c.wantLow || high != c.wantHigh {
			t.Errorf("AdmitLow %d AdmitHigh %d: band %d/%d, want %d/%d",
				c.low, c.high, low, high, c.wantLow, c.wantHigh)
		}
	}
}
