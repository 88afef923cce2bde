package orchestrator

import (
	"fmt"
	"sort"

	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/trace"
)

// Config wires a Run to its execution resources. The zero value is
// usable: GOMAXPROCS workers, no cache, no counters.
type Config struct {
	// Pool supplies the worker width, which is also the issue width:
	// Run keeps at most Pool.Workers tasks in flight (nil selects
	// engine.NewPool(0), i.e. GOMAXPROCS).
	Pool *engine.Pool
	// Cache memoizes non-ephemeral stage outputs across runs; nil runs
	// without memoization (within-run sharing still happens through the
	// graph's content-address dedup).
	Cache *Cache
	// Counters, if set, receives the run's observability counters under
	// "orchestrator." names.
	Counters *metrics.Counters
	// Tracer, if set, records the run's timeline: executed stages as
	// spans on the pool workers' tracks (noted "cold" — an executed
	// stage is by definition a cache miss), cache hits during demand
	// resolution as instants noted "warm"/"disk-hit". Tracing observes
	// the schedule and never steers it: results stay independent of
	// whether a tracer is attached.
	Tracer *trace.Tracer
}

// issued is one task handed to a worker: the closure plus its resolved
// dependency outputs.
type issued struct {
	key   Key
	stage string
	deps  []any
	run   func(deps []any) (any, error)
}

type taskResult struct {
	key Key
	val any
	err error
}

// Run executes the graph and returns the sink outputs by key.
//
// Demand is resolved backwards from the sinks: a stage whose output is
// already in the cache is served from it, and its entire ancestry is
// pruned — the mechanism that makes a warm rerun compute nothing. The
// remaining stages are issued to the worker pool in deterministic key
// order, at most one per worker in flight; outputs are stored back
// into the cache (spilling to disk when marked), and ephemeral outputs
// are dropped — with Release called — as soon as their last dependent
// completes. Because tasks are pure and dependency outputs are treated
// as read-only, the returned values are independent of pool width and
// cache state.
//
// On failure Run drains the tasks already in flight and reports the
// failed stage with the smallest key, so the surfaced error is
// deterministic for a deterministic set of failures.
func Run(g *Graph, cfg Config) (map[Key]any, error) {
	sinks := g.Sinks()
	ctr := cfg.Counters
	ctr.Add("orchestrator.runs", 1)
	ctr.Set("orchestrator.stages", int64(g.Len()))
	// orch is the scheduler's own track: cache-hit instants. Nil when
	// tracing is off.
	orch := cfg.Tracer.Track("orchestrator", 0)

	// Demand resolution: walk backwards from the sinks, stopping at
	// cache hits.
	need := map[Key]bool{}
	results := map[Key]any{}
	var visit func(k Key) error
	visit = func(k Key) error {
		if need[k] {
			return nil
		}
		if _, ok := results[k]; ok {
			return nil
		}
		n := g.nodes[k]
		if !n.task.Ephemeral && cfg.Cache != nil {
			v, src, err := cfg.Cache.GetSourced(k, n.canon)
			if err != nil {
				return err
			}
			if src != CacheMiss {
				if src == CacheDisk {
					orch.InstantNote(n.task.Stage, "disk-hit")
				} else {
					orch.InstantNote(n.task.Stage, "warm")
				}
				results[k] = v
				return nil
			}
		}
		need[k] = true
		for _, d := range n.task.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range sinks {
		if err := visit(s); err != nil {
			return nil, err
		}
	}
	ctr.Set("orchestrator.resolved", int64(len(results)))
	ctr.Set("orchestrator.pruned", int64(g.Len()-len(need)-len(results)))

	// Dependency bookkeeping restricted to the needed subgraph.
	remaining := map[Key]int{}
	dependents := map[Key][]Key{}
	for k := range need {
		for _, d := range g.nodes[k].task.Deps {
			if need[d] {
				remaining[k]++
				dependents[d] = append(dependents[d], k)
			}
		}
	}
	refcnt := map[Key]int{}
	for k := range need {
		if g.nodes[k].task.Ephemeral {
			refcnt[k] = len(dependents[k])
		}
	}
	sinkSet := map[Key]bool{}
	for _, s := range sinks {
		sinkSet[s] = true
	}

	// Ready set, kept sorted so issuance order is a pure function of the
	// graph contents.
	var ready []Key
	pushReady := func(k Key) {
		i := sort.Search(len(ready), func(i int) bool { return k.Less(ready[i]) })
		ready = append(ready, Key{})
		copy(ready[i+1:], ready[i:])
		ready[i] = k
	}
	for k := range need {
		if remaining[k] == 0 {
			pushReady(k)
		}
	}

	pool := cfg.Pool
	if pool == nil {
		pool = engine.NewPool(0)
	}
	workers := pool.Workers
	if workers < 1 {
		workers = 1
	}
	// Stage spans land on the pool's per-worker tracks; attach them on
	// demand when the caller handed a tracer but a bare pool.
	if cfg.Tracer != nil && pool.WorkerTrack(0) == nil {
		pool.SetTracer(cfg.Tracer)
	}

	// inflight never exceeds workers, so both channels hold every
	// outstanding item and no send below can block.
	taskCh := make(chan issued, workers)
	resCh := make(chan taskResult, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			tk := pool.WorkerTrack(w)
			for t := range taskCh {
				ts := tk.Begin()
				v, err := t.run(t.deps)
				tk.EndNote(ts, t.stage, "cold")
				resCh <- taskResult{key: t.key, val: v, err: err}
			}
		}(w)
	}
	defer close(taskCh)

	inflight := 0
	failed := false
	var failures []taskResult

	issue := func() {
		for !failed && len(ready) > 0 && inflight < workers {
			k := ready[0]
			ready = ready[1:]
			n := g.nodes[k]
			deps := make([]any, len(n.task.Deps))
			for i, d := range n.task.Deps {
				deps[i] = results[d]
			}
			taskCh <- issued{key: k, stage: n.task.Stage, deps: deps, run: n.task.Run}
			inflight++
			ctr.Add("orchestrator.issued", 1)
		}
	}

	complete := func(r taskResult) {
		n := g.nodes[r.key]
		ctr.Add("orchestrator.completed", 1)
		if !n.task.Ephemeral && cfg.Cache != nil {
			if err := cfg.Cache.Put(r.key, n.canon, r.val, n.task.Spill); err != nil {
				failed = true
				failures = append(failures, taskResult{key: r.key, err: err})
			}
		}
		results[r.key] = r.val
		for _, dk := range dependents[r.key] {
			remaining[dk]--
			if remaining[dk] == 0 {
				pushReady(dk)
			}
		}
		for _, d := range n.task.Deps {
			dn := g.nodes[d]
			if !dn.task.Ephemeral || !need[d] {
				continue
			}
			refcnt[d]--
			if refcnt[d] == 0 && !sinkSet[d] {
				v := results[d]
				delete(results, d)
				if dn.task.Release != nil {
					dn.task.Release(v)
				}
				ctr.Add("orchestrator.released", 1)
			}
		}
	}

	issue()
	for inflight > 0 {
		r := <-resCh
		inflight--
		if r.err != nil {
			failed = true
			failures = append(failures, r)
		} else {
			complete(r)
		}
		issue()
	}

	if cfg.Cache != nil {
		st := cfg.Cache.Stats()
		ctr.Set("orchestrator.cache.hits", st.Hits)
		ctr.Set("orchestrator.cache.misses", st.Misses)
		ctr.Set("orchestrator.cache.spills", st.Spills)
		ctr.Set("orchestrator.cache.loads", st.Loads)
	}

	if failed {
		// Release any ephemeral outputs stranded by the failure.
		for k, v := range results {
			n := g.nodes[k]
			if n.task.Ephemeral && refcnt[k] > 0 && !sinkSet[k] {
				delete(results, k)
				if n.task.Release != nil {
					n.task.Release(v)
				}
			}
		}
		sort.Slice(failures, func(i, j int) bool { return failures[i].key.Less(failures[j].key) })
		f := failures[0]
		return nil, fmt.Errorf("orchestrator: stage %q (%s): %w", g.nodes[f.key].task.Stage, f.key, f.err)
	}

	out := make(map[Key]any, len(sinks))
	for _, s := range sinks {
		out[s] = results[s]
	}
	return out, nil
}
