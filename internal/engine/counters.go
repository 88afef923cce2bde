package engine

import "emstdp/internal/loihi"

// Energy counters under parallelism. The chip backend accrues activity
// counters (spikes, synaptic events, learning ops, …) on whichever chip
// ran the work, so once the engine spreads passes across replicas the
// Table II / Fig 3 harnesses can no longer read one chip's counters.
// The Group closes the gap with a deterministic replica-order
// reduction: every counter is a per-event int64 increment, a pass is a
// pure function of (weights, input), and the division of samples among
// replicas only moves increments between dies-of-the-pool — it cannot
// create or destroy them. The reduced totals therefore equal the
// sequential single-chip run of the same schedule, which is what the
// energy harness pins.

// CounterRunner is the optional Runner facet of backends that accrue
// activity counters; *chipnet.Network implements it on any die count,
// the full-precision reference does not.
type CounterRunner interface {
	// Counters returns the runner's accumulated activity counters.
	Counters() loihi.Counters
	// ResetCounters zeroes them (the energy harness brackets a measured
	// region with reset/read).
	ResetCounters()
}

// Counters returns the reduction of activity counters over every runner
// the group owns, in a fixed order — master first, then pool/pipeline
// replicas in slot order. The counters are integer event counts, so the
// reduction is exact and equals the sequential single-chip totals of
// the same schedule regardless of how the pool divided the work. ok is
// false when the backend accrues no counters (the FP reference).
// Snapshot replicas belong to their WeightVersion, not to the group,
// and are not counted. Every group entry point returns only after its
// replicas are quiescent, so Counters may be called between any two.
func (g *Group) Counters() (loihi.Counters, bool) {
	var total loihi.Counters
	found := false
	for _, r := range g.replicas {
		if cr, ok := r.(CounterRunner); ok {
			total.Add(cr.Counters())
			found = true
		}
	}
	return total, found
}

// ResetCounters zeroes the activity counters of every runner the group
// owns, bracketing a pool-driven measured region the way ResetCounters
// on a single chip brackets a sequential one. Replicas built after the
// reset start at zero, so the bracket stays sound even when the first
// measured call grows the pool.
func (g *Group) ResetCounters() {
	for _, r := range g.replicas {
		if cr, ok := r.(CounterRunner); ok {
			cr.ResetCounters()
		}
	}
}
