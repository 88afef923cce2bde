package engine

import (
	"fmt"
	"sync"

	"emstdp/internal/metrics"
	"emstdp/internal/trace"
)

// Group binds a master Runner to a set of lazily-built replicas so
// evaluation can be sharded across a Pool while staying bit-identical
// to the sequential path. The master holds the authoritative weights;
// replicas are synchronised from it before every parallel region.
type Group struct {
	pool   *Pool
	master Runner
	// replicas[0] is the master itself; higher slots are clones.
	replicas []Runner
	// snapVersion and snapFree implement the versioned-weights API
	// (snapshot.go): snapVersion is the monotonic counter stamped on
	// every Snapshot, snapFree the released replica groups waiting to be
	// reused. snapMu guards both — Snapshot itself must not race
	// training on the master, but Release may be called from reader
	// goroutines at any time.
	snapMu      sync.Mutex
	snapVersion uint64
	snapFree    []*Group
}

// NewGroup wraps master for execution through pool.
func NewGroup(master Runner, pool *Pool) *Group {
	if pool == nil {
		pool = NewPool(1)
	}
	return &Group{pool: pool, master: master, replicas: []Runner{master}}
}

// SetTracer attaches tr to the group: pool workers record chunk spans.
// Nil detaches. Call between group calls, not during one.
func (g *Group) SetTracer(tr *trace.Tracer) {
	g.pool.SetTracer(tr)
}

// Close drops the released snapshot replica groups so they can be
// collected. Idempotent. Long-lived embedders — sweep harnesses, the
// serving layer's tenant-delete path — Close each group they retire.
func (g *Group) Close() {
	g.snapMu.Lock()
	g.snapFree = nil
	g.snapMu.Unlock()
}

// ensureReplicas grows the replica set to at least w runners and
// synchronises the weights of replicas 1..w-1 with the master
// (replicas[0] is the master itself).
func (g *Group) ensureReplicas(w int) error {
	for len(g.replicas) < w {
		r, err := g.master.CloneRunner()
		if err != nil {
			return fmt.Errorf("engine: cloning replica %d: %w", len(g.replicas), err)
		}
		g.replicas = append(g.replicas, r)
	}
	for i := 1; i < w; i++ {
		if err := g.replicas[i].SyncWeights(g.master); err != nil {
			return fmt.Errorf("engine: syncing replica %d: %w", i, err)
		}
	}
	return nil
}

// Predict classifies every sample and returns predictions indexed like
// samples. Samples are sharded across the pool's replicas; because a
// prediction is a pure function of (weights, input), the result equals
// the sequential pass for any pool width.
func (g *Group) Predict(samples []metrics.Sample) ([]int, error) {
	preds := make([]int, len(samples))
	w := g.pool.effective(len(samples))
	if w <= 1 {
		for i, s := range samples {
			preds[i] = g.master.Predict(s.X)
		}
		return preds, nil
	}
	if err := g.ensureReplicas(w); err != nil {
		return nil, err
	}
	g.pool.Map(len(samples), func(worker, i int) {
		preds[i] = g.replicas[worker].Predict(samples[i].X)
	})
	return preds, nil
}

// Evaluate classifies every sample through Predict and accumulates the
// confusion matrix in sample order.
func (g *Group) Evaluate(samples []metrics.Sample, classes int) (*metrics.Confusion, error) {
	preds, err := g.Predict(samples)
	if err != nil {
		return nil, err
	}
	cm := metrics.NewConfusion(classes)
	for i, s := range samples {
		cm.Observe(s.Y, preds[i])
	}
	return cm, nil
}
