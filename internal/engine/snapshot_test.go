package engine_test

import (
	"testing"

	"emstdp/internal/engine"
	"emstdp/internal/metrics"
)

// TestSnapshotVersionConformance pins the versioned-weights contract on
// both backends: classifying on version N is bit-identical to the
// synchronous Predict/Evaluate at the moment version N was cut, no
// matter how far the master trains afterwards, and version numbers are
// strictly monotonic.
func TestSnapshotVersionConformance(t *testing.T) {
	train := synthSamples(24, 20, 4, 3)
	probes := synthSamples(40, 20, 4, 9)
	for _, tc := range []struct {
		name   string
		runner engine.Runner
	}{
		{"fp", fpNet(t)},
		{"chip", chipNet(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := engine.NewGroup(tc.runner, engine.NewPool(4))
			defer g.Close()

			const cuts = 3
			versions := make([]*engine.WeightVersion, cuts)
			want := make([][]int, cuts)
			for c := 0; c < cuts; c++ {
				trainOn(tc.runner, train, 8)
				v, err := g.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if v.Version() != uint64(c+1) {
					t.Fatalf("cut %d: version %d, want %d", c, v.Version(), c+1)
				}
				// The synchronous reference at the cut point: the master's
				// own predictions before any further training.
				ref, err := g.Predict(probes)
				if err != nil {
					t.Fatal(err)
				}
				versions[c], want[c] = v, ref
			}
			// The master has trained past every cut; each version must
			// still answer exactly as the master did at its cut.
			for c := cuts - 1; c >= 0; c-- {
				got, err := versions[c].Predict(probes)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[c][i] {
						t.Fatalf("version %d: probe %d predicted %d, want %d (snapshot not frozen)",
							versions[c].Version(), i, got[i], want[c][i])
					}
				}
				cm, err := versions[c].Evaluate(probes, 4)
				if err != nil {
					t.Fatal(err)
				}
				refCM := metrics.NewConfusion(4)
				for i, s := range probes {
					refCM.Observe(s.Y, want[c][i])
				}
				if cm.Accuracy() != refCM.Accuracy() {
					t.Fatalf("version %d: Evaluate accuracy %v, want %v",
						versions[c].Version(), cm.Accuracy(), refCM.Accuracy())
				}
			}
			// Release recycles the replicas: the next snapshot reuses them,
			// keeps the monotonic numbering, and still conforms, while the
			// released handle refuses to serve stale weights.
			versions[0].Release()
			trainOn(tc.runner, train, 4)
			v4, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if v4.Version() != cuts+1 {
				t.Fatalf("post-release version %d, want %d", v4.Version(), cuts+1)
			}
			ref, err := g.Predict(probes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := v4.Predict(probes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("recycled version %d: probe %d predicted %d, want %d", v4.Version(), i, got[i], ref[i])
				}
			}
			if _, err := versions[0].Predict(probes); err != engine.ErrVersionReleased {
				t.Fatalf("released version Predict err = %v, want ErrVersionReleased", err)
			}
		})
	}
}

// TestSnapshotEvaluateConcurrentWithTraining pins background evaluation
// on a snapshot on both backends (the serving layer classifies this way
// while its master trains): a version cut at an epoch boundary and
// evaluated on its own goroutine while the master keeps training equals
// a synchronous Evaluate at the cut. TestSnapshotVersionConformance reads versions
// sequentially; this is the check that a read runs concurrently with
// training. The second round reuses the first round's released
// replicas and must see the newer weights.
func TestSnapshotEvaluateConcurrentWithTraining(t *testing.T) {
	train := synthSamples(24, 20, 4, 41)
	more := synthSamples(24, 20, 4, 43)
	test := synthSamples(40, 20, 4, 47)

	type result struct {
		cm  *metrics.Confusion
		err error
	}
	for name, build := range runnersUnderTest() {
		r := build(t)
		g := engine.NewGroup(r, engine.NewPool(2))
		trainOn(r, train, len(train))
		for round := 0; round < 2; round++ {
			// Synchronous reference at the cut…
			want, err := g.Evaluate(test, 4)
			if err != nil {
				t.Fatal(err)
			}
			v, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// …then the same version classified in the background while
			// the master trains on in the foreground.
			done := make(chan result, 1)
			go func() {
				cm, err := v.Evaluate(test, 4)
				done <- result{cm, err}
			}()
			trainOn(r, more, len(more))
			got := <-done
			v.Release()
			if got.err != nil {
				t.Fatal(got.err)
			}
			for i := range want.Cells {
				if want.Cells[i] != got.cm.Cells[i] {
					t.Fatalf("%s round %d: confusion cell %d: sync %d vs background %d",
						name, round, i, want.Cells[i], got.cm.Cells[i])
				}
			}
		}
		g.Close()
	}
}

// TestGroupCloseNoAsync pins that Close is idempotent and a no-op on a
// group that never cut a snapshot — the common sweep-harness case.
func TestGroupCloseNoAsync(t *testing.T) {
	g := engine.NewGroup(mockRunner{}, engine.NewPool(1))
	g.Close()
	g.Close()
}
