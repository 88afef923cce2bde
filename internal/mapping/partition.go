// Package mapping implements the paper's core-mapping algorithm
// (§III-C, Operation Flow 1): neurons are mapped incrementally onto
// cores a layer at a time, perCore neurons to a core. Packing more
// neurons per core uses fewer cores (less active power, idle cores are
// power-gated) but serialises more work per core per step (longer
// execution time), the trade-off of Fig 3.
//
// A Partition places the populations of a netlist on a board of one or
// more dies: whole when they fit and as contiguous per-core-aligned
// neuron ranges when they must (or when the strategy deliberately
// spreads them). The partitioner is an online algorithm, populations
// arriving one at a time in netlist build order, and is fully
// deterministic: the same sequence of Assign calls always yields the
// same placement, which is what lets a replica rebuild the identical
// sharded netlist from the configuration alone. Synapse memory and
// fan-in are not placement decisions; the chip checks them when a
// synapse group connects.
package mapping

import (
	"fmt"
	"strings"

	"emstdp/internal/loihi"
)

// Strategy selects how populations are spread over dies.
type Strategy int

const (
	// StrategyPopulation keeps each population whole on a single die,
	// chosen least-loaded-first (fewest occupied cores, ties to the
	// lowest die index); a population larger than the remaining space of
	// any single die spills across dies in contiguous ranges. Minimises
	// cross-die traffic at the cost of balance.
	StrategyPopulation Strategy = iota
	// StrategyRange splits every population into contiguous
	// per-core-aligned ranges spread across all dies (die i takes the
	// i-th chunk). Maximises balance — every die hosts a slice of every
	// layer — at the cost of mesh traffic.
	StrategyRange
	// StrategyTraffic keeps each population whole like
	// StrategyPopulation, but chooses the die greedily by connectivity:
	// the die already hosting the most neurons of the population's
	// declared peers (Assign), ties to the least-loaded then
	// lowest index. Co-locating heavily-connected populations cuts
	// cross-die spikes; with no peers declared it degrades to the
	// least-loaded choice, and it spills across dies ascending exactly
	// like StrategyPopulation when nothing fits whole.
	StrategyTraffic
)

// String names the strategy for reports and CSV columns.
func (s Strategy) String() string {
	switch s {
	case StrategyPopulation:
		return "population"
	case StrategyRange:
		return "range"
	case StrategyTraffic:
		return "traffic"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy name (CLI flags, options wiring).
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "population", "pop":
		return StrategyPopulation, nil
	case "range", "split":
		return StrategyRange, nil
	case "traffic", "affinity":
		return StrategyTraffic, nil
	}
	return 0, fmt.Errorf("mapping: unknown partition strategy %q (want population, range or traffic)", name)
}

// Shard is one die's contiguous slice of a population.
type Shard struct {
	Die    int
	Lo, Hi int // neuron range [Lo,Hi)
	// FirstCore / Cores locate the shard on its die; PerCore is the
	// packing (the last core of a shard may be partially filled).
	FirstCore, Cores, PerCore int
}

// PopPlacement records where one population landed.
type PopPlacement struct {
	Name string
	N    int
	// PerCore is the packing: neurons per core.
	PerCore int
	Shards  []Shard
}

// Partition is a deterministic multi-die placement under the per-core
// compartment budget.
type Partition struct {
	HW       loihi.HardwareConfig
	Dies     int
	Strategy Strategy
	Pops     []PopPlacement

	// nextCore is the per-die allocation cursor: cores are handed out
	// contiguously per die, layer after layer.
	nextCore []int
}

// NewPartition builds an empty partition over `dies` chips with the
// given per-die hardware limits.
func NewPartition(hw loihi.HardwareConfig, dies int, strategy Strategy) (*Partition, error) {
	if dies < 1 {
		return nil, fmt.Errorf("mapping: partition needs at least one die, got %d", dies)
	}
	if strategy != StrategyPopulation && strategy != StrategyRange && strategy != StrategyTraffic {
		return nil, fmt.Errorf("mapping: unknown strategy %v", strategy)
	}
	return &Partition{HW: hw, Dies: dies, Strategy: strategy, nextCore: make([]int, dies)}, nil
}

// CoresUsed returns the occupied core count of one die.
func (pt *Partition) CoresUsed(die int) int { return pt.nextCore[die] }

// Assign places the next population (netlist build order) and returns
// its placement. n is the population size and perCore its packing,
// which must lie in [1, MaxCompartmentsPerCore]. peers names the
// already-assigned populations this one is heavily connected to (fan-in
// sources, injection targets); only StrategyTraffic reads it, the other
// strategies place identically with or without peers. Returns an error
// when the board runs out of cores. A failed call leaves the partition
// untouched: shards are staged against a cursor copy and committed only
// on success, so no cores leak.
func (pt *Partition) Assign(name string, n, perCore int, peers []string) (*PopPlacement, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mapping: population %q needs positive size, got %d", name, n)
	}
	if perCore < 1 || perCore > pt.HW.MaxCompartmentsPerCore {
		return nil, fmt.Errorf("mapping: population %q perCore %d outside [1,%d]",
			name, perCore, pt.HW.MaxCompartmentsPerCore)
	}
	cores := (n + perCore - 1) / perCore

	pl := PopPlacement{Name: name, N: n, PerCore: perCore}
	cursor := append([]int(nil), pt.nextCore...)
	var err error
	switch pt.Strategy {
	case StrategyRange:
		err = pt.assignRange(&pl, cores, cursor)
	case StrategyTraffic:
		err = pt.assignTraffic(&pl, cores, cursor, peers)
	default:
		err = pt.assignPopulation(&pl, cores, cursor)
	}
	if err != nil {
		return nil, err
	}
	copy(pt.nextCore, cursor)
	pt.Pops = append(pt.Pops, pl)
	return &pt.Pops[len(pt.Pops)-1], nil
}

// take carves `cores` cores off die d for neurons [lo,hi) of pl,
// advancing the staged cursor (committed to pt.nextCore only when the
// whole Assign succeeds).
func (pt *Partition) take(pl *PopPlacement, cursor []int, die, lo, hi, cores int) {
	pl.Shards = append(pl.Shards, Shard{
		Die: die, Lo: lo, Hi: hi,
		FirstCore: cursor[die], Cores: cores, PerCore: pl.PerCore,
	})
	cursor[die] += cores
}

// assignPopulation places the population whole on the least-loaded die
// with room, spilling across dies ascending when no single die can hold
// it.
func (pt *Partition) assignPopulation(pl *PopPlacement, cores int, cursor []int) error {
	best := -1
	for d := 0; d < pt.Dies; d++ {
		if cursor[d]+cores > pt.HW.NumCores {
			continue
		}
		if best < 0 || cursor[d] < cursor[best] {
			best = d
		}
	}
	if best >= 0 {
		pt.take(pl, cursor, best, 0, pl.N, cores)
		return nil
	}
	return pt.spill(pl, cursor)
}

// assignTraffic places the population whole on the die with the highest
// connectivity affinity — the most neurons of the declared peers
// already resident — among the dies with room; ties go to the
// least-loaded die, then the lowest index. No declared peers (or peers
// all elsewhere) degrades to the least-loaded choice; no die with room
// spills across dies ascending like assignPopulation.
func (pt *Partition) assignTraffic(pl *PopPlacement, cores int, cursor []int, peers []string) error {
	affinity := make([]int, pt.Dies)
	for _, name := range peers {
		for i := range pt.Pops {
			if pt.Pops[i].Name != name {
				continue
			}
			for _, s := range pt.Pops[i].Shards {
				affinity[s.Die] += s.Hi - s.Lo
			}
		}
	}
	best := -1
	for d := 0; d < pt.Dies; d++ {
		if cursor[d]+cores > pt.HW.NumCores {
			continue
		}
		if best < 0 || affinity[d] > affinity[best] ||
			(affinity[d] == affinity[best] && cursor[d] < cursor[best]) {
			best = d
		}
	}
	if best >= 0 {
		pt.take(pl, cursor, best, 0, pl.N, cores)
		return nil
	}
	return pt.spill(pl, cursor)
}

// spill scatters the population over dies ascending in contiguous
// per-core-aligned ranges — the shared overflow path of the
// whole-population strategies.
func (pt *Partition) spill(pl *PopPlacement, cursor []int) error {
	lo := 0
	for d := 0; d < pt.Dies && lo < pl.N; d++ {
		free := pt.HW.NumCores - cursor[d]
		if free <= 0 {
			continue
		}
		needed := (pl.N - lo + pl.PerCore - 1) / pl.PerCore
		c := free
		if c > needed {
			c = needed
		}
		hi := lo + c*pl.PerCore
		if hi > pl.N {
			hi = pl.N
		}
		pt.take(pl, cursor, d, lo, hi, c)
		lo = hi
	}
	if lo < pl.N {
		return fmt.Errorf("mapping: out of cores placing %q (%d neurons unplaced, %d dies full)",
			pl.Name, pl.N-lo, pt.Dies)
	}
	return nil
}

// assignRange spreads the population's cores over all dies: die i takes
// the i-th contiguous chunk, chunk sizes as equal as core granularity
// allows (earlier dies take the remainder cores).
func (pt *Partition) assignRange(pl *PopPlacement, cores int, cursor []int) error {
	base, extra := cores/pt.Dies, cores%pt.Dies
	lo := 0
	for d := 0; d < pt.Dies && lo < pl.N; d++ {
		c := base
		if d < extra {
			c++
		}
		if c == 0 {
			continue
		}
		if cursor[d]+c > pt.HW.NumCores {
			return fmt.Errorf("mapping: out of cores placing %q chunk on die %d (need %d, %d free)",
				pl.Name, d, c, pt.HW.NumCores-cursor[d])
		}
		hi := lo + c*pl.PerCore
		if hi > pl.N {
			hi = pl.N
		}
		pt.take(pl, cursor, d, lo, hi, c)
		lo = hi
	}
	if lo < pl.N {
		return fmt.Errorf("mapping: internal: %q neurons [%d,%d) unplaced", pl.Name, lo, pl.N)
	}
	return nil
}

// Validate checks the partition's invariants — the properties the fuzz
// harness asserts:
//
//  1. every neuron of every population is assigned to exactly one shard
//     (shards tile [0,N) without gaps or overlaps);
//  2. no core is assigned more compartments than the hardware allows,
//     and no die more cores than it has.
//
// Synapse memory and fan-in are checked when a synapse group connects,
// not here.
func (pt *Partition) Validate() error {
	occ := make([][]int, pt.Dies) // per die, per core compartment counts
	for d := range occ {
		occ[d] = make([]int, pt.HW.NumCores)
	}
	for _, pl := range pt.Pops {
		if pl.PerCore < 1 || pl.PerCore > pt.HW.MaxCompartmentsPerCore {
			return fmt.Errorf("%q: perCore %d outside [1,%d]", pl.Name, pl.PerCore, pt.HW.MaxCompartmentsPerCore)
		}
		next := 0
		for si, s := range pl.Shards {
			if s.Lo != next {
				return fmt.Errorf("%q shard %d: starts at %d, want %d (gap or overlap)", pl.Name, si, s.Lo, next)
			}
			if s.Hi <= s.Lo {
				return fmt.Errorf("%q shard %d: empty range [%d,%d)", pl.Name, si, s.Lo, s.Hi)
			}
			next = s.Hi
			if s.Die < 0 || s.Die >= pt.Dies {
				return fmt.Errorf("%q shard %d: die %d outside board", pl.Name, si, s.Die)
			}
			if s.FirstCore < 0 || s.FirstCore+s.Cores > pt.HW.NumCores {
				return fmt.Errorf("%q shard %d: cores [%d,%d) outside die", pl.Name, si, s.FirstCore, s.FirstCore+s.Cores)
			}
			if got := (s.Hi - s.Lo + s.PerCore - 1) / s.PerCore; got != s.Cores {
				return fmt.Errorf("%q shard %d: %d neurons need %d cores, recorded %d",
					pl.Name, si, s.Hi-s.Lo, got, s.Cores)
			}
			remaining := s.Hi - s.Lo
			for c := 0; c < s.Cores; c++ {
				take := s.PerCore
				if take > remaining {
					take = remaining
				}
				occ[s.Die][s.FirstCore+c] += take
				remaining -= take
			}
		}
		if next != pl.N {
			return fmt.Errorf("%q: shards cover [0,%d) of %d neurons", pl.Name, next, pl.N)
		}
	}
	for d := range occ {
		for core, used := range occ[d] {
			if used > pt.HW.MaxCompartmentsPerCore {
				return fmt.Errorf("die %d core %d: %d compartments > limit %d",
					d, core, used, pt.HW.MaxCompartmentsPerCore)
			}
		}
	}
	return nil
}
