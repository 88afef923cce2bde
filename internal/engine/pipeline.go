package engine

import (
	"fmt"

	"emstdp/internal/metrics"
	"emstdp/internal/stream"
	"emstdp/internal/trace"
)

// Pipelined two-phase training.
//
// EMSTDP's online protocol is strictly serial: sample k+1's phase 1
// runs on the weights sample k's update produced, so the chip idles
// between a sample's phase 2 and the next sample's phase 1 exactly
// never — there is nothing to overlap without changing the schedule.
// The pipeline therefore changes the schedule by the smallest possible,
// precisely specified amount: a bounded update lag.
//
// The lag-L deferred-update schedule (L = depth-1):
//
//   - Updates u_0, u_1, … are applied to the master strictly in sample
//     order, each drawn against the master's own stochastic-rounding
//     streams — exactly as a sequential walk of the same schedule would
//     consume them.
//   - Sample k's two-phase pass runs against one consistent weight
//     version V_k = the master's weights after updates u_0 … u_{k-depth}
//     (all updates for depth = 1, none while k < depth). Every pass
//     therefore lags the online schedule by exactly L = depth-1 updates;
//     depth 1 is lag 0, the paper's online protocol, bit for bit.
//
// Every update is still computed from a single sample and applied
// per-sample, in sample order — batch-1 semantics with bounded
// staleness, unlike mini-batching, which computes a whole batch from the
// same weights. The schedule is a pure function of (sample sequence,
// depth): it does not depend on the pool width, on which replica runs
// which pass (a pass is a pure function of weights and input — the
// engine's foundational property), or on timing. TrainPipelined executes
// it with depth passes in flight across depth replicas; the conformance
// suite's sequential reference executes the identical schedule one pass
// at a time on a single scratch replica. Bit-identity between the two —
// weights, predictions, chip counters, pinned on both backends — is what
// makes the concurrent schedule shippable.
//
// Steady state of the depth-2 pipeline, one phase-time per column
// (P1/P2 = the sample's two chip phases, A = capture + master apply +
// hand-off sync):
//
//	replica 1:  P1(k)   P2(k)   A  P1(k+2) P2(k+2) A  …
//	replica 2:          P1(k+1) P2(k+1) A  P1(k+3) …
//
// — one replica runs phase 1 of the next sample while the other
// finishes phase 2 and the weight update of the current one, the ~2×
// throughput the paper's two-phase split leaves on the table.

// pipeline is a Group's persistent stage-worker state: depth goroutines,
// each bound to one replica slot, fed one sample at a time over
// per-slot channels. It persists across TrainPipelined calls of the
// same depth so the steady-state loop allocates nothing.
type pipeline struct {
	depth int
	// work[s] hands slot s its next sample; done[s] reports the pass
	// finished and updates[s] holds the captured update. The channel
	// pair orders every cross-goroutine access to updates[s].
	work    []chan metrics.Sample
	done    []chan struct{}
	updates []Update
	quit    chan struct{}
	// slots[s] is slot s's trace track ("pipeline-slot-s": one "pass"
	// span per sample) and coord the coordinator's ("pipeline":
	// retire-wait/apply/sync spans plus the "inflight" occupancy
	// counter, whose dips below depth are the pipeline's bubbles). All
	// nil when tracing is off — recording is the only effect, the
	// schedule is fixed by (sample sequence, depth) alone.
	slots []*trace.Track
	coord *trace.Track
}

// ensurePipeline builds (or rebuilds, on a depth change) the stage
// workers. Worker s owns replica 1+s; the master (replicas[0]) never
// runs pipelined passes — it is the weight authority the coordinator
// syncs from and applies updates to.
func (g *Group) ensurePipeline(depth int) error {
	if g.pipe != nil && g.pipe.depth == depth {
		return nil
	}
	g.ClosePipeline()
	if err := g.ensureReplicas(depth + 1); err != nil {
		return err
	}
	p := &pipeline{
		depth:   depth,
		work:    make([]chan metrics.Sample, depth),
		done:    make([]chan struct{}, depth),
		updates: make([]Update, depth),
		quit:    make(chan struct{}),
		slots:   make([]*trace.Track, depth),
		coord:   g.tracer.Track("pipeline", 0),
	}
	for s := 0; s < depth; s++ {
		p.work[s] = make(chan metrics.Sample)
		p.done[s] = make(chan struct{})
		p.slots[s] = g.tracer.Track(fmt.Sprintf("pipeline-slot-%d", s), 0)
		go p.worker(s, g.replicas[1+s])
	}
	g.pipe = p
	return nil
}

// worker runs slot s's passes: program, both phases, capture. The
// coordinator owns the replica's weights (SyncWeights happens before the
// work send) and reads updates[s] only after the done receive.
func (p *pipeline) worker(s int, r Runner) {
	for {
		select {
		case <-p.quit:
			return
		case smp := <-p.work[s]:
			start := p.slots[s].Begin()
			r.ProgramSample(smp.X, smp.Y)
			r.RunPhases(true)
			p.updates[s] = r.CaptureUpdateInto(p.updates[s])
			p.slots[s].End(start, "pass")
			// Select on quit so a coordinator that dies mid-schedule
			// (a panicking ApplyUpdate) cannot strand this worker in
			// the send: ClosePipeline still reclaims it.
			select {
			case p.done[s] <- struct{}{}:
			case <-p.quit:
				return
			}
		}
	}
}

// ClosePipeline stops the persistent stage workers (idempotent, safe on
// a group that never pipelined). A Group that used TrainPipelined holds
// depth goroutines until ClosePipeline or process exit; long-lived
// embedders that are done training should close.
func (g *Group) ClosePipeline() {
	if g.pipe == nil {
		return
	}
	close(g.pipe.quit)
	g.pipe = nil
}

// TrainPipelined consumes src through the EMSTDP update on the
// lag-(depth-1) deferred-update schedule documented above, with up to
// depth two-phase passes in flight across depth replicas.
//
// depth <= 1 is the paper's online protocol and delegates to
// TrainStream(src, 1) on the master. For depth >= 2, iteration k first
// retires the oldest in-flight pass (sample k-depth): it waits for the
// pass, then applies its captured update to the master — in sample
// order, from the master's own rounding streams. It then hands sample k
// to the next slot's replica after syncing that replica's weights from
// the master, freezing V_k = master-after-u_{k-depth} for the whole
// pass. The realized schedule is a pure function of (sample sequence,
// depth); the pool width plays no part, because the pipeline's
// parallelism IS its depth (depth also sets the update lag, so it must
// never be silently clamped to the core count).
//
// An error can only be returned before the first Next (replica
// construction); once the schedule is in motion a failure would leave
// the master half-trained, so mid-schedule contract violations panic
// instead — callers may safely finish the epoch from src on error.
func (g *Group) TrainPipelined(src stream.Source, depth int) error {
	if depth <= 1 {
		_, err := g.TrainStream(src, 1)
		return err
	}
	if err := g.ensurePipeline(depth); err != nil {
		return err
	}
	p := g.pipe
	launched, retired := 0, 0
	for {
		s, ok := src.Next()
		if !ok {
			break
		}
		slot := launched % depth
		if launched >= depth {
			t0 := p.coord.Begin()
			<-p.done[slot]
			p.coord.End(t0, "retire-wait")
			retired++
			p.coord.Counter("inflight", int64(launched-retired))
			t0 = p.coord.Begin()
			g.master.ApplyUpdate(p.updates[slot])
			p.coord.End(t0, "apply")
		}
		r := g.replicas[1+slot]
		tSync := p.coord.Begin()
		if err := r.SyncWeights(g.master); err != nil {
			// A replica cloned from the master can never fail to sync;
			// reaching here means a broken Runner contract. By now
			// updates may already be applied, so a recoverable error
			// would invite callers to "retry" an epoch that half
			// happened — panic instead, like the backends do on foreign
			// updates. Drain in-flight passes first so the workers are
			// not stranded mid-hand-off.
			for retired < launched {
				<-p.done[retired%depth]
				retired++
			}
			panic(fmt.Sprintf("engine: pipelined sync of slot %d: %v", slot, err))
		}
		p.coord.End(tSync, "sync")
		p.work[slot] <- s
		launched++
		p.coord.Counter("inflight", int64(launched-retired))
	}
	// Drain: the oldest un-retired pass is always sample `retired`.
	for ; retired < launched; retired++ {
		slot := retired % depth
		t0 := p.coord.Begin()
		<-p.done[slot]
		p.coord.End(t0, "retire-wait")
		p.coord.Counter("inflight", int64(launched-retired-1))
		g.master.ApplyUpdate(p.updates[slot])
	}
	return nil
}
