package engine

import (
	"errors"
	"fmt"
	"sync"

	"emstdp/internal/metrics"
)

// Versioned weight snapshots.
//
// A snapshot clones the master once, SyncWeights at the call point, and
// classifies on the clone while the master trains on — sound because a
// prediction is a pure function of (weights, input) and the clone's
// weights are frozen at the sync. WeightVersion makes that contract a
// first-class API with monotonic version numbers, which is what the
// serving layer needs: readers classifying on "the weights as of update
// N" while exactly one writer advances the master, with an auditable
// version number on every response instead of an implicit "whenever the
// snapshot happened to be cut".
//
// The conformance property (pinned by TestSnapshotVersionConformance and
// the serve layer's suite) is: classifying on version N is bit-identical
// to a synchronous Evaluate at the moment Snapshot returned version N,
// no matter how far the master has trained since.

// ErrVersionReleased is returned by WeightVersion.Predict/Evaluate after
// Release: the snapshot's replica group has been recycled and may
// already carry a newer version's weights.
var ErrVersionReleased = errors.New("engine: weight version released")

// WeightVersion is a numbered, frozen snapshot of a Group's master
// weights, classifying on its own replica group so reads never touch
// the (possibly training) master. Versions issued by one Group carry
// strictly increasing numbers. A WeightVersion serialises its own
// Predict/Evaluate calls internally, so one version may be shared by
// concurrent readers; Release returns the underlying replicas to the
// owning group's free list for the next Snapshot to reuse.
type WeightVersion struct {
	version uint64
	owner   *Group
	// grp is the dedicated group whose master is the frozen clone;
	// Predict shards across its replicas on the owner's pool. It is
	// never the owner's training group.
	grp *Group

	mu       sync.Mutex
	released bool
}

// Version returns the snapshot's monotonic number (1 for the group's
// first snapshot).
func (v *WeightVersion) Version() uint64 { return v.version }

// Predict classifies every sample on the frozen weights, sharded across
// the pool exactly like Group.Predict — and therefore bit-identical to
// a sequential pass over the same weights for any pool width.
func (v *WeightVersion) Predict(samples []metrics.Sample) ([]int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.released {
		return nil, ErrVersionReleased
	}
	return v.grp.Predict(samples)
}

// Evaluate classifies every sample on the frozen weights and accumulates
// the confusion matrix in sample order.
func (v *WeightVersion) Evaluate(samples []metrics.Sample, classes int) (*metrics.Confusion, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.released {
		return nil, ErrVersionReleased
	}
	return v.grp.Evaluate(samples, classes)
}

// Release returns the snapshot's replicas to the owning group's free
// list so the next Snapshot reuses them instead of cloning a fresh
// network. Idempotent; Predict and Evaluate fail afterwards. Callers
// that hand a version to concurrent readers must release only after the
// last reader is done (the serve layer refcounts for exactly this).
func (v *WeightVersion) Release() {
	v.mu.Lock()
	if v.released {
		v.mu.Unlock()
		return
	}
	v.released = true
	v.mu.Unlock()
	v.owner.snapMu.Lock()
	v.owner.snapFree = append(v.owner.snapFree, v.grp)
	v.owner.snapMu.Unlock()
}

// Snapshot cuts a new weight version from the master: it takes a
// replica group off the free list (or clones one from the master on
// first use), copies the master's weights into its frozen master via
// SyncWeights, and stamps it with the next monotonic version number.
// The copy happens synchronously on the calling goroutine, so Snapshot
// must not race training on the master — cut
// versions from the training goroutine, between updates. Classifying on
// issued versions is safe concurrently with both training and later
// Snapshot calls, because a version's replicas are recycled only after
// its Release.
func (g *Group) Snapshot() (*WeightVersion, error) {
	g.snapMu.Lock()
	var sg *Group
	if n := len(g.snapFree); n > 0 {
		sg = g.snapFree[n-1]
		g.snapFree = g.snapFree[:n-1]
	}
	g.snapMu.Unlock()
	if sg == nil {
		r, err := g.master.CloneRunner()
		if err != nil {
			return nil, fmt.Errorf("engine: cloning snapshot replica: %w", err)
		}
		sg = NewGroup(r, g.pool)
	}
	if err := sg.master.SyncWeights(g.master); err != nil {
		return nil, fmt.Errorf("engine: syncing snapshot: %w", err)
	}
	g.snapMu.Lock()
	g.snapVersion++
	v := &WeightVersion{version: g.snapVersion, owner: g, grp: sg}
	g.snapMu.Unlock()
	return v, nil
}
