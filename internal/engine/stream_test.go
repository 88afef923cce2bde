// Streamed-training contracts: TrainStream over a bounded channel must
// be bit-identical to the sequential mini-batch walk of the same
// realised order materialised (weights, predictions, counters).
package engine_test

import (
	"fmt"
	"testing"

	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
	"emstdp/internal/stream"
)

// realise materialises a seeded random order of samples — the sample
// sequence both the reference walk and the streamed run see.
func realise(samples []metrics.Sample, seed uint64) []metrics.Sample {
	out := make([]metrics.Sample, len(samples))
	for i, idx := range rng.New(seed).Perm(len(samples)) {
		out[i] = samples[idx]
	}
	return out
}

// trainBatched is the sequential reference of TrainStream's schedule
// over a materialised sample sequence. batch <= 1 trains the master
// online. Otherwise each consecutive mini-batch runs its passes one at
// a time on a scratch replica synced to the batch-start weights, and
// the captured updates are applied to the master in sample order. It
// returns the scratch replica (nil when online) so its counters can be
// reduced with the master's.
func trainBatched(t *testing.T, master engine.Runner, samples []metrics.Sample, batch int) engine.Runner {
	t.Helper()
	if batch <= 1 {
		for _, s := range samples {
			master.ProgramSample(s.X, s.Y)
			master.RunPhases(true)
			master.ApplyUpdate(nil)
		}
		return nil
	}
	r, err := master.CloneRunner()
	if err != nil {
		t.Fatal(err)
	}
	updates := make([]engine.Update, 0, batch)
	for start := 0; start < len(samples); start += batch {
		if err := r.SyncWeights(master); err != nil {
			t.Fatal(err)
		}
		updates = updates[:0]
		for _, s := range samples[start:min(start+batch, len(samples))] {
			r.ProgramSample(s.X, s.Y)
			r.RunPhases(true)
			updates = append(updates, r.CaptureUpdate())
		}
		for _, u := range updates {
			master.ApplyUpdate(u)
		}
	}
	return r
}

func TestTrainStreamBitIdentical(t *testing.T) {
	samples := synthSamples(48, 20, 4, 31)
	test := synthSamples(24, 20, 4, 37)
	order := realise(samples, 5)

	cases := []struct{ workers, batch int }{
		{1, 1}, // the paper's online protocol
		{1, 4}, // batched path, sequential pool
		{4, 4}, // batched path, parallel pool
	}
	for name, build := range runnersUnderTest() {
		for _, c := range cases {
			// Materialised reference: the sequential walk of the
			// realised order.
			ref := build(t)
			scratch := trainBatched(t, ref, order, c.batch)

			// Streamed run: the same order delivered over the bounded
			// channel.
			ch := stream.NewChannel(stream.NewSliceSource(order), stream.Watermarks{Low: 2, High: 8})
			got := build(t)
			gGot := engine.NewGroup(got, engine.NewPool(c.workers))
			n, err := gGot.TrainStream(ch, c.batch)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(samples) {
				t.Fatalf("%s w=%d b=%d: TrainStream trained %d samples, want %d", name, c.workers, c.batch, n, len(samples))
			}
			if st := ch.Stats(); st.Produced != int64(len(samples)) || st.Dropped != 0 {
				t.Fatalf("%s w=%d b=%d: channel stats %+v", name, c.workers, c.batch, st)
			}

			assertSameWeights(t, fmt.Sprintf("%s w=%d b=%d", name, c.workers, c.batch), ref, got)
			// Chip activity counters accrue identically: both runs drive
			// the same phases, however they spread them across replicas.
			cr, _ := reducedCounters(ref, scratch)
			if cg, _ := gGot.Counters(); cr != cg {
				t.Fatalf("%s w=%d b=%d: counters diverged:\n%+v\n%+v", name, c.workers, c.batch, cr, cg)
			}

			// Predictions bit-identical.
			for i, s := range test {
				if pr, pg := ref.Predict(s.X), got.Predict(s.X); pr != pg {
					t.Fatalf("%s w=%d b=%d: prediction %d diverged: %d vs %d", name, c.workers, c.batch, i, pr, pg)
				}
			}
		}
	}
}
