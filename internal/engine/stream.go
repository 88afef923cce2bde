package engine

import (
	"emstdp/internal/metrics"
	"emstdp/internal/stream"
)

// TrainStream consumes src sample by sample through the EMSTDP update,
// returning the number of samples trained. It is one of the group's two
// training entry points (TrainPipelined is the other); a materialised
// split trains through it as a stream.SliceSource over the realised
// order.
//
// batch <= 1 is the paper's online protocol: every sample trains the
// master directly, and the only buffering anywhere is the source's own
// (e.g. a Channel's watermark window), so memory stays bounded no
// matter how long the stream runs. batch > 1 partitions the stream
// into consecutive mini-batches: every batch member's two-phase pass
// runs on a pool replica holding the batch-start weights, and the
// captured updates are applied to the master in stream order
// (consuming the master's stochastic-rounding streams exactly as a
// sequential walk would), so results depend on the batch size but not
// on the pool width.
//
// An error (a replica that cannot be built or synchronised) leaves
// every sample already pulled from src trained, so the caller can
// finish the epoch from the same source.
func (g *Group) TrainStream(src stream.Source, batch int) (int, error) {
	n := 0
	if batch <= 1 {
		for {
			s, ok := src.Next()
			if !ok {
				return n, nil
			}
			g.master.ProgramSample(s.X, s.Y)
			g.master.RunPhases(true)
			g.master.ApplyUpdate(nil)
			n++
		}
	}
	w := g.pool.effective(batch)
	if err := g.ensureReplicas(w); err != nil {
		return n, err
	}
	buf := make([]metrics.Sample, 0, batch)
	updates := make([]Update, batch)
	for {
		// Sync before pulling the batch, so an error never strands
		// samples taken from src but not trained.
		if err := g.sync(w); err != nil {
			return n, err
		}
		buf = buf[:0]
		for len(buf) < batch {
			s, ok := src.Next()
			if !ok {
				break
			}
			buf = append(buf, s)
		}
		if len(buf) == 0 {
			return n, nil
		}
		g.pool.Map(len(buf), func(worker, j int) {
			r := g.replicas[worker]
			r.ProgramSample(buf[j].X, buf[j].Y)
			r.RunPhases(true)
			updates[j] = r.CaptureUpdate()
		})
		for j := range buf {
			g.master.ApplyUpdate(updates[j])
		}
		n += len(buf)
	}
}
