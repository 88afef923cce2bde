package orchestrator

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emstdp/internal/engine"
	"emstdp/internal/metrics"
)

// sweepGraph builds a synthetic two-dataset sweep shaped like the real
// experiment grids: dataset → pretrain → per-cell evaluate, with the
// prefixes shared across cells. runs counts actual task executions.
func sweepGraph(t *testing.T, runs *atomic.Int64, datasets, cells int) (*Graph, []Key) {
	t.Helper()
	g := NewGraph()
	var sinks []Key
	for d := 0; d < datasets; d++ {
		d := d
		dk := g.MustAdd(Task{
			Stage: "realize-dataset",
			Canon: (&Canon{}).Int("seed", int64(d)),
			Run: func(deps []any) (any, error) {
				runs.Add(1)
				return d * 100, nil
			},
			Spill: true,
		})
		pk := g.MustAdd(Task{
			Stage: "pretrain",
			Canon: (&Canon{}).Int("seed", int64(d)),
			Deps:  []Key{dk},
			Run: func(deps []any) (any, error) {
				runs.Add(1)
				return deps[0].(int) + 7, nil
			},
			Spill: true,
		})
		for c := 0; c < cells; c++ {
			c := c
			sinks = append(sinks, g.MustAdd(Task{
				Stage: "evaluate",
				Canon: (&Canon{}).Int("seed", int64(d)).Int("cell", int64(c)),
				Deps:  []Key{pk},
				Run: func(deps []any) (any, error) {
					runs.Add(1)
					return deps[0].(int)*10 + c, nil
				},
			}))
		}
	}
	return g, sinks
}

func TestRunSharedPrefixComputesOnce(t *testing.T) {
	var runs atomic.Int64
	g, sinks := sweepGraph(t, &runs, 2, 3)
	out, err := Run(g, Config{Pool: engine.NewPool(4)})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets + 2 pretrains + 6 cells = 10 executions, not 6×3.
	if got := runs.Load(); got != 10 {
		t.Fatalf("executed %d stages, want 10", got)
	}
	if len(out) != len(sinks) {
		t.Fatalf("got %d sink results, want %d", len(out), len(sinks))
	}
	for i, s := range sinks {
		d, c := i/3, i%3
		want := (d*100+7)*10 + c
		if out[s] != want {
			t.Fatalf("sink %d = %v, want %d", i, out[s], want)
		}
	}
}

func TestRunDeterministicUnderRandomizedOrderAndWidth(t *testing.T) {
	var base atomic.Int64
	gRef, _ := sweepGraph(t, &base, 3, 4)
	ref, err := Run(gRef, Config{Pool: engine.NewPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		var runs atomic.Int64
		g := NewGraph()
		// Re-add the same logical sweep with dataset blocks in a shuffled
		// order; content addressing must make the result identical.
		order := rng.Perm(3)
		var sinks []Key
		for _, d := range order {
			d := d
			dk := g.MustAdd(Task{
				Stage: "realize-dataset",
				Canon: (&Canon{}).Int("seed", int64(d)),
				Run:   func(deps []any) (any, error) { runs.Add(1); return d * 100, nil },
				Spill: true,
			})
			pk := g.MustAdd(Task{
				Stage: "pretrain",
				Canon: (&Canon{}).Int("seed", int64(d)),
				Deps:  []Key{dk},
				Run:   func(deps []any) (any, error) { runs.Add(1); return deps[0].(int) + 7, nil },
				Spill: true,
			})
			for c := 0; c < 4; c++ {
				c := c
				sinks = append(sinks, g.MustAdd(Task{
					Stage: "evaluate",
					Canon: (&Canon{}).Int("seed", int64(d)).Int("cell", int64(c)),
					Deps:  []Key{pk},
					Run:   func(deps []any) (any, error) { runs.Add(1); return deps[0].(int)*10 + c, nil },
				}))
			}
		}
		_ = sinks
		workers := 1 + rng.Intn(8)
		out, err := Run(g, Config{Pool: engine.NewPool(workers)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, ref) {
			t.Fatalf("trial %d (workers=%d): results differ from reference", trial, workers)
		}
	}
}

func TestRunWarmCacheComputesNothing(t *testing.T) {
	cache := NewCache("")
	var runs atomic.Int64
	g1, _ := sweepGraph(t, &runs, 2, 3)
	cold, err := Run(g1, Config{Cache: cache, Pool: engine.NewPool(2)})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 10 {
		t.Fatalf("cold run executed %d stages, want 10", runs.Load())
	}
	g2, _ := sweepGraph(t, &runs, 2, 3)
	ctr := metrics.NewCounters()
	warm, err := Run(g2, Config{Cache: cache, Pool: engine.NewPool(2), Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 10 {
		t.Fatalf("warm run executed %d extra stages, want 0", runs.Load()-10)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm results differ from cold")
	}
	if got := ctr.Get("orchestrator.resolved"); got != 6 {
		t.Fatalf("warm run resolved %d sinks from cache, want 6", got)
	}
	// The 4 prefix stages were never even demanded.
	if got := ctr.Get("orchestrator.pruned"); got != 4 {
		t.Fatalf("warm run pruned %d stages, want 4", got)
	}
	if got := ctr.Get("orchestrator.issued"); got != 0 {
		t.Fatalf("warm run issued %d tasks, want 0", got)
	}
}

func TestRunPartialCacheRecomputesOnlySuffix(t *testing.T) {
	cache := NewCache("")
	var runs atomic.Int64
	g1, _ := sweepGraph(t, &runs, 1, 2)
	if _, err := Run(g1, Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	before := runs.Load() // 1 dataset + 1 pretrain + 2 cells = 4
	// A new cell on the same dataset reuses the cached pretrain.
	g2 := NewGraph()
	dk := g2.MustAdd(Task{
		Stage: "realize-dataset",
		Canon: (&Canon{}).Int("seed", 0),
		Run:   func(deps []any) (any, error) { runs.Add(1); return 0, nil },
	})
	pk := g2.MustAdd(Task{
		Stage: "pretrain",
		Canon: (&Canon{}).Int("seed", 0),
		Deps:  []Key{dk},
		Run:   func(deps []any) (any, error) { runs.Add(1); return deps[0].(int) + 7, nil },
	})
	ck := g2.MustAdd(Task{
		Stage: "evaluate",
		Canon: (&Canon{}).Int("seed", 0).Int("cell", 99),
		Deps:  []Key{pk},
		Run:   func(deps []any) (any, error) { runs.Add(1); return deps[0].(int)*10 + 99, nil },
	})
	out, err := Run(g2, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load() - before; got != 1 {
		t.Fatalf("suffix run executed %d stages, want 1", got)
	}
	if out[ck] != 7*10+99 {
		t.Fatalf("suffix cell = %v, want %d", out[ck], 7*10+99)
	}
}

// TestRunBoundsInflightByWorkers pins the issue rule: at most one task
// per pool worker is in flight, and a pool of N does run N at once.
func TestRunBoundsInflightByWorkers(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	// Each task holds its worker until the bound has been reached once
	// (or the deadline passes), so a scheduler that issues fewer than
	// workers at a time fails the reach check instead of racing it.
	deadline := time.Now().Add(2 * time.Second)
	g := NewGraph()
	for i := 0; i < 24; i++ {
		i := i
		g.MustAdd(Task{
			Stage: "cell",
			Canon: (&Canon{}).Int("i", int64(i)),
			Run: func(deps []any) (any, error) {
				c := cur.Add(1)
				for {
					m := max.Load()
					if c <= m || max.CompareAndSwap(m, c) {
						break
					}
				}
				for max.Load() < workers && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
				time.Sleep(200 * time.Microsecond)
				cur.Add(-1)
				return i, nil
			},
		})
	}
	ctr := metrics.NewCounters()
	if _, err := Run(g, Config{Pool: engine.NewPool(workers), Counters: ctr}); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m != workers {
		t.Fatalf("observed at most %d tasks in flight, want exactly %d (the pool width)", m, workers)
	}
	if got := ctr.Get("orchestrator.completed"); got != 24 {
		t.Fatalf("completed %d, want 24", got)
	}
}

func TestRunEphemeralReleasedAfterLastDependent(t *testing.T) {
	var released atomic.Int64
	g := NewGraph()
	mk := g.MustAdd(Task{
		Stage:     "train-checkpoint",
		Canon:     (&Canon{}).Int("seed", 1),
		Run:       func(deps []any) (any, error) { return "model", nil },
		Ephemeral: true,
		Release: func(v any) {
			if v != "model" {
				panic("released wrong value")
			}
			released.Add(1)
		},
	})
	var sinks []Key
	for i := 0; i < 3; i++ {
		i := i
		sinks = append(sinks, g.MustAdd(Task{
			Stage: "evaluate",
			Canon: (&Canon{}).Int("protocol", int64(i)),
			Deps:  []Key{mk},
			Run:   func(deps []any) (any, error) { return fmt.Sprint(deps[0], "/", i), nil },
		}))
	}
	cache := NewCache("")
	out, err := Run(g, Config{Cache: cache, Pool: engine.NewPool(2)})
	if err != nil {
		t.Fatal(err)
	}
	if released.Load() != 1 {
		t.Fatalf("checkpoint released %d times, want exactly 1", released.Load())
	}
	for i, s := range sinks {
		if out[s] != fmt.Sprintf("model/%d", i) {
			t.Fatalf("sink %d = %v", i, out[s])
		}
	}
	// Ephemeral outputs must never enter the cache.
	if _, ok, _ := cache.Get(mk, (&Canon{}).Int("seed", 1).Bytes()); ok {
		t.Fatal("ephemeral checkpoint was cached")
	}
}

func TestRunReportsLowestKeyError(t *testing.T) {
	g := NewGraph()
	var keys []Key
	for i := 0; i < 4; i++ {
		i := i
		keys = append(keys, g.MustAdd(Task{
			Stage: fmt.Sprintf("fail-%d", i),
			Canon: (&Canon{}).Int("i", int64(i)),
			Run:   func(deps []any) (any, error) { return nil, fmt.Errorf("boom %d", i) },
		}))
	}
	lowest := keys[0]
	for _, k := range keys[1:] {
		if k.Less(lowest) {
			lowest = k
		}
	}
	_, err := Run(g, Config{Pool: engine.NewPool(4)})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), lowest.String()) {
		t.Fatalf("error %q does not name the lowest failed key %s", err, lowest)
	}
}

func TestCacheCollisionRejected(t *testing.T) {
	c := NewCache("")
	canonA := (&Canon{}).Int("epochs", 1).Bytes()
	canonB := (&Canon{}).Int("epochs", 2).Bytes()
	k := StageKey("train", canonA)
	if err := c.Put(k, canonA, 42, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(k, canonB); !errors.Is(err, ErrKeyCollision) {
		t.Fatalf("Get with mutated config: err = %v, want ErrKeyCollision", err)
	}
	if err := c.Put(k, canonB, 43, false); !errors.Is(err, ErrKeyCollision) {
		t.Fatalf("Put with mutated config: err = %v, want ErrKeyCollision", err)
	}
	if v, ok, err := c.Get(k, canonA); err != nil || !ok || v != 42 {
		t.Fatalf("original entry damaged: %v %v %v", v, ok, err)
	}
}

func TestGraphAddCollisionAndDedup(t *testing.T) {
	g := NewGraph()
	mk := func() Task {
		return Task{
			Stage: "s",
			Canon: (&Canon{}).Int("x", 1),
			Run:   func(deps []any) (any, error) { return nil, nil },
		}
	}
	k1 := g.MustAdd(mk())
	k2 := g.MustAdd(mk())
	if k1 != k2 || g.Len() != 1 {
		t.Fatal("identical stages must deduplicate to one node")
	}
	if _, err := g.Add(Task{Stage: "s", Deps: []Key{{1}}, Canon: &Canon{}, Run: func([]any) (any, error) { return nil, nil }}); err == nil {
		t.Fatal("unknown dependency must be rejected")
	}
}

type spillValue struct {
	Weights []float64
	Label   string
}

func TestCacheDiskSpillRoundTrip(t *testing.T) {
	Register(spillValue{})
	dir := t.TempDir()
	canon := (&Canon{}).Str("ds", "mnist").Int("seed", 3).Bytes()
	k := StageKey("realize-dataset", canon)
	want := spillValue{Weights: []float64{1.5, -2.25}, Label: "w"}

	c1 := NewCache(dir)
	if err := c1.Put(k, canon, want, true); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Spills != 1 {
		t.Fatalf("spills = %d, want 1", st.Spills)
	}

	// A fresh cache over the same directory faults the entry back in.
	c2 := NewCache(dir)
	v, ok, err := c2.Get(k, canon)
	if err != nil || !ok {
		t.Fatalf("warm get: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("round-tripped %+v, want %+v", v, want)
	}
	if st := c2.Stats(); st.Loads != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 load / 1 hit", st)
	}
	// Mutated config against the spilled entry is rejected too.
	c3 := NewCache(dir)
	if _, _, err := c3.Get(k, (&Canon{}).Str("ds", "mnist").Int("seed", 4).Bytes()); !errors.Is(err, ErrKeyCollision) {
		t.Fatalf("spilled collision: err = %v, want ErrKeyCollision", err)
	}
}

// TestCacheQuarantinesCorruptSpill pins the outcome of a damaged spill
// file, truncated or overwritten with garbage: the entry is a miss, not
// an error. The file is renamed to <key>.stage.corrupt, Run recomputes
// the stage and re-spills it, and a fresh cache faults the new spill
// back in.
func TestCacheQuarantinesCorruptSpill(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"garbage":   func(b []byte) []byte { return bytes.Repeat([]byte{0xa5}, len(b)) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var runs atomic.Int64
			g, _ := sweepGraph(t, &runs, 1, 2)
			cold, err := Run(g, Config{Cache: NewCache(dir), Pool: engine.NewPool(1)})
			if err != nil {
				t.Fatal(err)
			}
			// Damage the pretrain spill, the deepest stage a warm run
			// demands.
			seed := (&Canon{}).Int("seed", 0).Bytes()
			k := StageKey("pretrain", seed, StageKey("realize-dataset", seed))
			path := filepath.Join(dir, k.String()+".stage")
			damage := func() {
				t.Helper()
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			quarantined := func() {
				t.Helper()
				if _, err := os.Stat(path + ".corrupt"); err != nil {
					t.Fatalf("damaged spill not quarantined: %v", err)
				}
			}

			damage()
			runs.Store(0)
			g2, _ := sweepGraph(t, &runs, 1, 2)
			c2 := NewCache(dir)
			warm, err := Run(g2, Config{Cache: c2, Pool: engine.NewPool(1)})
			if err != nil {
				t.Fatalf("run over a damaged spill: %v", err)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Fatalf("recomputed results %v differ from cold %v", warm, cold)
			}
			// pretrain and both cells recompute; realize-dataset loads.
			if runs.Load() != 3 {
				t.Fatalf("run executed %d stages, want 3", runs.Load())
			}
			if st := c2.Stats(); st.Spills != 1 {
				t.Fatalf("stats = %+v, want the recomputed stage re-spilled", st)
			}
			quarantined()

			c3 := NewCache(dir)
			if v, ok, err := c3.Get(k, seed); err != nil || !ok || v != 7 {
				t.Fatalf("fresh cache over the re-spill: v=%v ok=%v err=%v, want 7", v, ok, err)
			}

			damage()
			c4 := NewCache(dir)
			if v, ok, err := c4.Get(k, seed); err != nil || ok || v != nil {
				t.Fatalf("get on a damaged spill: v=%v ok=%v err=%v, want a clean miss", v, ok, err)
			}
			if st := c4.Stats(); st.Misses != 1 || st.Hits != 0 || st.Loads != 0 {
				t.Fatalf("stats = %+v, want 1 miss", st)
			}
			quarantined()
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("damaged spill left in place: %v", err)
			}
		})
	}
}

// FuzzStageKey proves the canonical serialization is injective enough
// for content addressing: mutating any field value, field name, stage
// kind or dependency changes the key, and rebuilding the same config
// reproduces it.
func FuzzStageKey(f *testing.F) {
	f.Add("seed", int64(3), "dataset", "mnist", uint8(1))
	f.Add("", int64(0), "", "", uint8(0))
	f.Add("a", int64(-1), "a", "\x00\x01", uint8(255))
	f.Fuzz(func(t *testing.T, n1 string, v int64, n2, sv string, tweak uint8) {
		build := func(n1 string, v int64, n2, sv string, b bool, fv float64, is []int) []byte {
			return (&Canon{}).Int(n1, v).Str(n2, sv).Bool("flag", b).Float("lr", fv).Ints("chips", is).Bytes()
		}
		base := build(n1, v, n2, sv, false, 0.5, []int{1, 2})
		again := build(n1, v, n2, sv, false, 0.5, []int{1, 2})
		if !bytes.Equal(base, again) {
			t.Fatal("canonical form is not deterministic")
		}
		k := StageKey("train", base)
		if k != StageKey("train", again) {
			t.Fatal("equal configs produced different keys")
		}
		mutants := [][]byte{
			build(n1, v+1, n2, sv, false, 0.5, []int{1, 2}),
			build(n1+"x", v, n2, sv, false, 0.5, []int{1, 2}),
			build(n1, v, n2, sv+"y", false, 0.5, []int{1, 2}),
			build(n1, v, n2, sv, true, 0.5, []int{1, 2}),
			build(n1, v, n2, sv, false, 0.25, []int{1, 2}),
			build(n1, v, n2, sv, false, 0.5, []int{1, 2, int(tweak) + 3}),
			build(n1, v, n2, sv, false, 0.5, nil),
		}
		for i, m := range mutants {
			if bytes.Equal(m, base) {
				// The mutation was a no-op on this input (e.g. n1+"x" when
				// names alias); the canon may legitimately match.
				if StageKey("train", m) != k {
					t.Fatalf("mutant %d: equal canon, different key", i)
				}
				continue
			}
			if StageKey("train", m) == k {
				t.Fatalf("mutant %d: distinct canonical configs collided", i)
			}
		}
		if StageKey("evaluate", base) == k {
			t.Fatal("distinct stage kinds collided")
		}
		dep := StageKey("dep", build(n2, v, n1, sv, false, 0.5, nil))
		if StageKey("train", base, dep) == k {
			t.Fatal("adding a dependency did not change the key")
		}
	})
}
