package engine

import (
	"fmt"
	"runtime"
	"sync"

	"emstdp/internal/trace"
)

// Pool is a fixed-width worker pool for sharding independent work items
// (test samples, sweep cells) across goroutines. Work is
// partitioned into contiguous index ranges, one per worker, so the
// worker→item assignment is a pure function of (n, Workers) and results
// accumulated by index are deterministic.
type Pool struct {
	// Workers is the pool width. NewPool clamps non-positive requests to
	// GOMAXPROCS.
	Workers int
	// tracks holds one trace track per worker ("pool-worker-N"), nil
	// until SetTracer attaches a tracer. Sharding is a pure function of
	// (n, Workers), so recording per-chunk spans cannot change which
	// worker computes what — tracing observes the schedule, never
	// steers it.
	tracks []*trace.Track
}

// NewPool returns a pool of the given width; workers <= 0 selects
// GOMAXPROCS (the "as fast as the hardware allows" default).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{Workers: workers}
}

// SetTracer attaches tr's per-worker tracks to the pool: each Map
// chunk is recorded as one span on its worker's track. A nil tracer
// detaches (tracing off). Not safe to call concurrently with Map.
func (p *Pool) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		p.tracks = nil
		return
	}
	w := p.Workers
	if w < 1 {
		w = 1
	}
	p.tracks = make([]*trace.Track, w)
	for k := range p.tracks {
		p.tracks[k] = tr.Track(fmt.Sprintf("pool-worker-%d", k), 0)
	}
}

// WorkerTrack returns worker w's trace track (nil when tracing is off
// or w is out of range), so layered schedulers — the orchestrator's
// stage runner — can put their own spans on the worker timeline.
func (p *Pool) WorkerTrack(w int) *trace.Track {
	if p == nil || w < 0 || w >= len(p.tracks) {
		return nil
	}
	return p.tracks[w]
}

// effective returns the number of goroutines to launch for n items.
func (p *Pool) effective(n int) int {
	w := p.Workers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// Map runs fn(worker, i) for every i in [0, n), sharding the index space
// into contiguous chunks across the pool: worker w handles
// [w·n/W, (w+1)·n/W). fn must not touch another worker's state; writes
// indexed by i (to pre-sized slices) need no further synchronisation.
// With one worker (or n <= 1) everything runs on the calling goroutine.
func (p *Pool) Map(n int, fn func(worker, i int)) {
	w := p.effective(n)
	if w <= 1 {
		tk := p.WorkerTrack(0)
		start := tk.Begin()
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		tk.End(start, "map")
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			tk := p.WorkerTrack(worker)
			start := tk.Begin()
			for i := lo; i < hi; i++ {
				fn(worker, i)
			}
			tk.End(start, "map")
		}(k, lo, hi)
	}
	wg.Wait()
}
