package mapping

import (
	"strings"
	"testing"

	"emstdp/internal/loihi"
	"emstdp/internal/rng"
)

// assignAll feeds a deterministic pseudo-random netlist shape into a
// fresh partition and returns it (or the first error).
func assignAll(t testing.TB, dies int, strategy Strategy, pops [][2]int) (*Partition, error) {
	t.Helper()
	pt, err := NewPartition(loihi.DefaultHardware(), dies, strategy)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pops {
		// The traffic strategy additionally consumes declared adjacency:
		// chain each pop to its predecessor so affinity placement runs.
		var peers []string
		if strategy == StrategyTraffic && i > 0 {
			peers = []string{popName(i - 1)}
		}
		if _, err := pt.Assign(popName(i), p[0], p[1], peers); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

func popName(i int) string {
	return string(rune('a' + i%26))
}

// randomPops draws population shapes (size, perCore) from a seeded
// stream.
func randomPops(r *rng.Source, n int) [][2]int {
	pops := make([][2]int, n)
	for i := range pops {
		pops[i] = [2]int{
			1 + r.Intn(2000), // size
			1 + r.Intn(64),   // perCore
		}
	}
	return pops
}

// TestPartitionInvariantsRandomized is the randomized table harness:
// many seeded netlist shapes, all three strategies, several die counts —
// every accepted partition must satisfy the full invariant set
// (exactly-once assignment, core and compartment capacities), and
// replaying the same sequence must reproduce the identical partition.
func TestPartitionInvariantsRandomized(t *testing.T) {
	for _, dies := range []int{1, 2, 3, 4, 8} {
		for _, strategy := range []Strategy{StrategyPopulation, StrategyRange, StrategyTraffic} {
			for seed := uint64(1); seed <= 25; seed++ {
				r := rng.New(seed * 977)
				pops := randomPops(r, 1+int(seed)%12)
				pt, err := assignAll(t, dies, strategy, pops)
				if err != nil {
					// Capacity exhaustion is a legal outcome; the partial
					// partition must still be consistent.
					if verr := pt.Validate(); verr != nil {
						t.Fatalf("dies=%d %v seed=%d: invalid partial partition after %v: %v",
							dies, strategy, seed, err, verr)
					}
					continue
				}
				if err := pt.Validate(); err != nil {
					t.Fatalf("dies=%d %v seed=%d: %v", dies, strategy, seed, err)
				}
				// Determinism: replaying the identical Assign sequence
				// yields the identical placement.
				pt2, err2 := assignAll(t, dies, strategy, pops)
				if err2 != nil {
					t.Fatalf("dies=%d %v seed=%d: replay failed: %v", dies, strategy, seed, err2)
				}
				assertSamePartition(t, pt, pt2)
			}
		}
	}
}

func assertSamePartition(t *testing.T, a, b *Partition) {
	t.Helper()
	if len(a.Pops) != len(b.Pops) {
		t.Fatalf("replay placed %d pops, want %d", len(b.Pops), len(a.Pops))
	}
	for i := range a.Pops {
		pa, pb := a.Pops[i], b.Pops[i]
		if pa.Name != pb.Name || pa.N != pb.N || pa.PerCore != pb.PerCore || len(pa.Shards) != len(pb.Shards) {
			t.Fatalf("pop %d differs: %+v vs %+v", i, pa, pb)
		}
		for j := range pa.Shards {
			if pa.Shards[j] != pb.Shards[j] {
				t.Fatalf("pop %d shard %d differs: %+v vs %+v", i, j, pa.Shards[j], pb.Shards[j])
			}
		}
	}
}

// TestPartitionStrategyShapes pins the intended macro-behaviour of each
// strategy on a capacious board.
func TestPartitionStrategyShapes(t *testing.T) {
	hw := loihi.DefaultHardware()

	// Population strategy: a pop that fits stays whole, lands on the
	// least-loaded die.
	pt, err := NewPartition(hw, 2, StrategyPopulation)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pt.Assign("a", 100, 10, nil)
	if len(a.Shards) != 1 || a.Shards[0].Die != 0 {
		t.Fatalf("first pop should land whole on die 0: %+v", a.Shards)
	}
	b, _ := pt.Assign("b", 100, 10, nil)
	if len(b.Shards) != 1 || b.Shards[0].Die != 1 {
		t.Fatalf("second pop should balance onto die 1: %+v", b.Shards)
	}

	// Range strategy: a 256-neuron pop at 10/core over 2 dies splits
	// 13+13 cores, per-core aligned, with lower rows on lower dies.
	pt2, err := NewPartition(hw, 2, StrategyRange)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pt2.Assign("c", 256, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shards) != 2 {
		t.Fatalf("want 2 shards, got %+v", c.Shards)
	}
	if c.Shards[0].Die != 0 || c.Shards[1].Die != 1 || c.Shards[0].Hi != c.Shards[1].Lo {
		t.Fatalf("range shards out of order: %+v", c.Shards)
	}
	if c.Shards[0].Cores+c.Shards[1].Cores != 26 {
		t.Fatalf("core count %d+%d, want 26 total", c.Shards[0].Cores, c.Shards[1].Cores)
	}
	if c.Shards[0].Lo != 0 || c.Shards[1].Hi != 256 || c.Shards[0].Hi%10 != 0 {
		t.Fatalf("range shards misaligned: %+v", c.Shards)
	}

	// Spill: a population too large for any one die must still place,
	// as contiguous ranges.
	small := hw
	small.NumCores = 4
	pt3, err := NewPartition(small, 3, StrategyPopulation)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pt3.Assign("d", 100, 10, nil) // needs 10 cores, dies have 4
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Shards) < 2 {
		t.Fatalf("oversized pop should spill: %+v", d.Shards)
	}
	if err := pt3.Validate(); err != nil {
		t.Fatal(err)
	}

	// Capacity exhaustion errors out rather than overcommitting.
	if _, err := pt3.Assign("e", 100, 10, nil); err == nil {
		t.Fatal("expected out-of-cores error")
	}
}

// TestPartitionAssignAtomic is the regression test for the staged-cursor
// commit: a failed Assign must leave the partition exactly as it was:
// no placement recorded, no cores leaked, and subsequent placements
// land as if the failed call never happened. The failures are the spill
// path running out of cores after provisionally carving shards off
// several dies, and a packing or size Assign rejects up front.
func TestPartitionAssignAtomic(t *testing.T) {
	small := loihi.DefaultHardware()
	small.NumCores = 4
	pt, err := NewPartition(small, 2, StrategyPopulation)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Assign("a", 30, 10, nil); err != nil { // 3 cores on die 0
		t.Fatal(err)
	}
	before := []int{pt.CoresUsed(0), pt.CoresUsed(1)}
	pops := len(pt.Pops)

	for _, tc := range []struct {
		name       string
		n, perCore int
	}{
		// 100 neurons at 10/core need 10 cores; the board has 5 free.
		// The spill walks die 0 then die 1 before discovering it cannot
		// finish.
		{"out of cores", 100, 10},
		{"perCore 0", 10, 0},
		{"perCore over limit", 10, small.MaxCompartmentsPerCore + 1},
		{"empty population", 0, 10},
	} {
		if _, err := pt.Assign("b", tc.n, tc.perCore, nil); err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if got := []int{pt.CoresUsed(0), pt.CoresUsed(1)}; got[0] != before[0] || got[1] != before[1] {
			t.Fatalf("%s: failed Assign leaked cores: %v, want %v", tc.name, got, before)
		}
		if len(pt.Pops) != pops {
			t.Fatalf("%s: failed Assign recorded a placement: %d pops, want %d", tc.name, len(pt.Pops), pops)
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("%s: partition invalid after failed Assign: %v", tc.name, err)
		}
	}

	// The next valid placement must be unaffected: 40 neurons fit die 1
	// whole (die 0 has only 1 core free).
	c, err := pt.Assign("c", 40, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shards) != 1 || c.Shards[0].Die != 1 || c.Shards[0].FirstCore != 0 {
		t.Fatalf("placement after failed Assign skewed: %+v", c.Shards)
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionTrafficAffinity pins the traffic strategy's macro
// behaviour: declared peers pull a population onto the peers' die even
// when another die is emptier; without peers it degrades to the
// least-loaded choice; and when the affine die has no room it falls to
// the best remaining candidate.
func TestPartitionTrafficAffinity(t *testing.T) {
	hw := loihi.DefaultHardware()
	pt, err := NewPartition(hw, 3, StrategyTraffic)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pt.Assign("a", 100, 10, nil)
	if err != nil || a.Shards[0].Die != 0 {
		t.Fatalf("first pop should land on die 0: %+v, %v", a.Shards, err)
	}
	// b declares a as a peer: co-locates on die 0 despite dies 1 and 2
	// being empty.
	b, err := pt.Assign("b", 100, 10, []string{"a"})
	if err != nil || len(b.Shards) != 1 || b.Shards[0].Die != 0 {
		t.Fatalf("peer-connected pop should co-locate on die 0: %+v, %v", b.Shards, err)
	}
	// c has no peers: least-loaded die (1).
	c, err := pt.Assign("c", 50, 10, nil)
	if err != nil || c.Shards[0].Die != 1 {
		t.Fatalf("peerless pop should take the least-loaded die: %+v, %v", c.Shards, err)
	}
	// d is pulled to c's die over the empty die 2.
	d, err := pt.Assign("d", 50, 10, []string{"c"})
	if err != nil || d.Shards[0].Die != 1 {
		t.Fatalf("peer-connected pop should follow its peer: %+v, %v", d.Shards, err)
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}

	// Affinity yields to capacity: on a tiny board, a peer of "a" that no
	// longer fits next to it takes the emptier die instead.
	small := hw
	small.NumCores = 4
	pt2, err := NewPartition(small, 2, StrategyTraffic)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt2.Assign("a", 30, 10, nil); err != nil { // 3 of 4 cores on die 0
		t.Fatal(err)
	}
	e, err := pt2.Assign("e", 20, 10, []string{"a"}) // needs 2 cores
	if err != nil || e.Shards[0].Die != 1 {
		t.Fatalf("full affine die should be skipped: %+v, %v", e.Shards, err)
	}
	if err := pt2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNeuronsPerCoreBounds pins the packing range: Assign rejects a
// perCore outside [1, MaxCompartmentsPerCore] instead of clamping it.
func TestNeuronsPerCoreBounds(t *testing.T) {
	hw := loihi.DefaultHardware()
	pt, err := NewPartition(hw, 2, StrategyRange)
	if err != nil {
		t.Fatal(err)
	}
	for _, per := range []int{-1, 0, hw.MaxCompartmentsPerCore + 1, 1 << 20} {
		if _, err := pt.Assign("bad", 10, per, nil); err == nil {
			t.Fatalf("perCore %d: expected rejection", per)
		}
	}
	if len(pt.Pops) != 0 {
		t.Fatalf("rejected packings placed %d populations", len(pt.Pops))
	}
}

// TestPartitionCapacityClamping pins exact packing: Assign places at
// exactly perCore neurons per core anywhere in [1,
// MaxCompartmentsPerCore], on the population and on every shard.
func TestPartitionCapacityClamping(t *testing.T) {
	hw := loihi.DefaultHardware()
	pt, err := NewPartition(hw, 2, StrategyRange)
	if err != nil {
		t.Fatal(err)
	}
	for _, per := range []int{1, 7, hw.MaxCompartmentsPerCore} {
		pl, err := pt.Assign("ok", 100, per, nil)
		if err != nil {
			t.Fatalf("perCore %d: %v", per, err)
		}
		if pl.PerCore != per {
			t.Fatalf("perCore %d placed at %d", per, pl.PerCore)
		}
		for _, s := range pl.Shards {
			if s.PerCore != per {
				t.Fatalf("perCore %d: shard packed at %d", per, s.PerCore)
			}
		}
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionValidateRejects hand-builds one corrupt partition per
// invariant Validate checks and requires each to be reported.
func TestPartitionValidateRejects(t *testing.T) {
	hw := loihi.DefaultHardware()
	hw.NumCores = 4
	limit := hw.MaxCompartmentsPerCore
	pop := func(name string, n, per int, shards ...Shard) PopPlacement {
		return PopPlacement{Name: name, N: n, PerCore: per, Shards: shards}
	}
	for _, tc := range []struct {
		name string
		pops []PopPlacement
		want string
	}{
		{"perCore 0", []PopPlacement{pop("a", 10, 0)}, "perCore 0 outside"},
		{"perCore over limit", []PopPlacement{pop("a", 10, limit+1)}, "outside [1,"},
		{"gap", []PopPlacement{pop("a", 20, 10,
			Shard{Die: 0, Lo: 0, Hi: 10, Cores: 1, PerCore: 10},
			Shard{Die: 1, Lo: 12, Hi: 20, Cores: 1, PerCore: 10})}, "gap or overlap"},
		{"empty shard", []PopPlacement{pop("a", 10, 10,
			Shard{Die: 0, Lo: 0, Hi: 0, Cores: 0, PerCore: 10})}, "empty range"},
		{"die off board", []PopPlacement{pop("a", 10, 10,
			Shard{Die: 2, Lo: 0, Hi: 10, Cores: 1, PerCore: 10})}, "outside board"},
		{"cores off die", []PopPlacement{pop("a", 20, 10,
			Shard{Die: 0, Lo: 0, Hi: 20, FirstCore: 3, Cores: 2, PerCore: 10})}, "outside die"},
		{"core count", []PopPlacement{pop("a", 20, 10,
			Shard{Die: 0, Lo: 0, Hi: 20, Cores: 1, PerCore: 10})}, "need 2 cores, recorded 1"},
		{"short cover", []PopPlacement{pop("a", 20, 10,
			Shard{Die: 0, Lo: 0, Hi: 10, Cores: 1, PerCore: 10})}, "cover [0,10) of 20"},
		{"core overfull", []PopPlacement{
			pop("a", limit, limit, Shard{Die: 0, Lo: 0, Hi: limit, Cores: 1, PerCore: limit}),
			pop("b", 1, 1, Shard{Die: 0, Lo: 0, Hi: 1, Cores: 1, PerCore: 1}),
		}, "compartments > limit"},
	} {
		pt, err := NewPartition(hw, 2, StrategyPopulation)
		if err != nil {
			t.Fatal(err)
		}
		pt.Pops = tc.pops
		err = pt.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestNewPartitionRejects pins the constructor's argument checks.
func TestNewPartitionRejects(t *testing.T) {
	hw := loihi.DefaultHardware()
	if _, err := NewPartition(hw, 0, StrategyPopulation); err == nil {
		t.Error("0 dies: expected an error")
	}
	if _, err := NewPartition(hw, 1, Strategy(99)); err == nil {
		t.Error("unknown strategy: expected an error")
	}
}

// TestStrategyNames pins the strategy names and their aliases, both
// ways: every name String prints parses back to its strategy.
func TestStrategyNames(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
	}{
		{"", StrategyPopulation},
		{"population", StrategyPopulation},
		{" Pop ", StrategyPopulation},
		{"range", StrategyRange},
		{"SPLIT", StrategyRange},
		{"traffic", StrategyTraffic},
		{"affinity", StrategyTraffic},
	} {
		got, err := ParseStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseStrategy("round-robin"); err == nil {
		t.Error(`ParseStrategy("round-robin"): expected an error`)
	}
	for _, s := range []Strategy{StrategyPopulation, StrategyRange, StrategyTraffic} {
		if back, err := ParseStrategy(s.String()); err != nil || back != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), back, err, s)
		}
	}
	if got := Strategy(7).String(); got != "Strategy(7)" {
		t.Errorf("Strategy(7).String() = %q", got)
	}
}

// FuzzPartition feeds arbitrary byte-derived netlist shapes to all
// strategies and asserts the invariant set on every accepted partition
// — the Go-fuzzing half of the property harness.
func FuzzPartition(f *testing.F) {
	f.Add(uint64(1), 3, byte(0))
	f.Add(uint64(42), 8, byte(1))
	f.Add(uint64(7), 1, byte(0))
	f.Fuzz(func(t *testing.T, seed uint64, dies int, strat byte) {
		if dies < 1 || dies > 16 {
			t.Skip()
		}
		strategy := []Strategy{StrategyPopulation, StrategyRange, StrategyTraffic}[strat%3]
		r := rng.New(seed | 1)
		pops := randomPops(r, 1+int(seed%10))
		pt, err := assignAll(t, dies, strategy, pops)
		if verr := pt.Validate(); verr != nil {
			t.Fatalf("dies=%d %v seed=%d (assign err %v): %v", dies, strategy, seed, err, verr)
		}
		if err != nil {
			return
		}
		pt2, err2 := assignAll(t, dies, strategy, pops)
		if err2 != nil {
			t.Fatalf("replay failed: %v", err2)
		}
		assertSamePartition(t, pt, pt2)
	})
}
