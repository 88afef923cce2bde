package chipnet

import (
	"fmt"
	"testing"

	"emstdp/internal/emstdp"
	"emstdp/internal/engine"
	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
)

// conformanceNet builds the acceptance-criterion network — a 256-wide
// hidden layer over 64 input features and 10 classes — on the given die
// count and partition strategy (on one die every strategy places the
// populations in build order). An optional topology overrides the
// default line fabric.
func conformanceNet(t testing.TB, dies int, strategy mapping.Strategy, mode emstdp.FeedbackMode, topo ...loihi.Topology) *Network {
	t.Helper()
	cfg := DefaultConfig(64, 256, 10)
	cfg.Seed = 7
	cfg.Mode = mode
	cfg.Chips = dies
	cfg.Partition = strategy
	if len(topo) > 0 {
		cfg.Topology = topo[0]
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// driveConformance trains and then classifies a deterministic synthetic
// stream, returning the predictions and per-sample output spike counts.
func driveConformance(net *Network, trainN, testN int) (preds []int, counts [][]int) {
	r := rng.New(41)
	for i := 0; i < trainN; i++ {
		x, y := twoClassSample(r, 64)
		net.TrainSample(x, y)
	}
	for i := 0; i < testN; i++ {
		x, _ := twoClassSample(r, 64)
		preds = append(preds, net.Predict(x))
		net.ProgramSample(x, -1)
		net.RunPhases(false)
		counts = append(counts, net.ReadCounts())
	}
	return preds, counts
}

// assertWeightsEqual compares every plastic mantissa and exponent.
func assertWeightsEqual(t *testing.T, ref, got *Network, label string) {
	t.Helper()
	for li := 0; li < ref.NumPlasticLayers(); li++ {
		rg, gg := ref.Plastic(li), got.Plastic(li)
		if rg.Exp != gg.Exp {
			t.Fatalf("%s: layer %d exponent %d != %d", label, li, gg.Exp, rg.Exp)
		}
		for i := range rg.W {
			if rg.W[i] != gg.W[i] {
				t.Fatalf("%s: layer %d weight %d: got %d want %d", label, li, i, gg.W[i], rg.W[i])
			}
		}
	}
}

// TestMultiChipConformance is the table-driven conformance harness: the
// same network trained and evaluated on 1 die vs 2 and 4 dies, over the
// full partition-strategy × NoC-topology matrix, must produce
// bit-identical weights, spike counts, predictions and deterministic
// (aggregated) activity counters — placement and routing change traffic
// only, never results.
func TestMultiChipConformance(t *testing.T) {
	const trainN, testN = 30, 10
	ref := conformanceNet(t, 1, mapping.StrategyPopulation, emstdp.DFA)
	refPreds, refCounts := driveConformance(ref, trainN, testN)
	refCounters := ref.Counters()

	var cases []struct {
		dies     int
		strategy mapping.Strategy
		topo     loihi.TopologyKind
	}
	for _, dies := range []int{2, 4} {
		for _, strategy := range []mapping.Strategy{
			mapping.StrategyPopulation, mapping.StrategyRange, mapping.StrategyTraffic,
		} {
			for _, topo := range []loihi.TopologyKind{loihi.TopoLine, loihi.TopoMesh, loihi.TopoTorus} {
				cases = append(cases, struct {
					dies     int
					strategy mapping.Strategy
					topo     loihi.TopologyKind
				}{dies, strategy, topo})
			}
		}
	}
	for _, tc := range cases {
		name := fmt.Sprintf("dies=%d/%v/%v", tc.dies, tc.strategy, tc.topo)
		t.Run(name, func(t *testing.T) {
			net := conformanceNet(t, tc.dies, tc.strategy, emstdp.DFA, loihi.Topology{Kind: tc.topo})
			if err := net.PartitionPlan().Validate(); err != nil {
				t.Fatalf("partition invalid: %v", err)
			}
			preds, counts := driveConformance(net, trainN, testN)
			for i := range refPreds {
				if preds[i] != refPreds[i] {
					t.Fatalf("prediction %d: got %d want %d", i, preds[i], refPreds[i])
				}
				for j := range refCounts[i] {
					if counts[i][j] != refCounts[i][j] {
						t.Fatalf("sample %d output %d: count %d want %d", i, j, counts[i][j], refCounts[i][j])
					}
				}
			}
			assertWeightsEqual(t, ref, net, name)
			if got := net.Counters(); got != refCounters {
				t.Fatalf("aggregated counters diverge:\nmesh   %+v\nsingle %+v", got, refCounters)
			}
			// Per-die counters must sum to the aggregate (Steps is the
			// lock-step common value, not a sum).
			mesh := net.Mesh()
			var sumSpikes, sumSyn, sumComp, sumLearn, sumCore, sumHost int64
			for d := 0; d < mesh.NumDies(); d++ {
				dc := mesh.DieCounters(d)
				sumSpikes += dc.Spikes
				sumSyn += dc.SynapticEvents
				sumComp += dc.CompartmentUpdates
				sumLearn += dc.LearningOps
				sumCore += dc.ActiveCoreSteps
				sumHost += dc.HostTransactions
				if dc.Steps != refCounters.Steps {
					t.Fatalf("die %d ran %d steps, lock-step reference %d", d, dc.Steps, refCounters.Steps)
				}
			}
			if sumSpikes != refCounters.Spikes || sumSyn != refCounters.SynapticEvents ||
				sumComp != refCounters.CompartmentUpdates || sumLearn != refCounters.LearningOps ||
				sumCore != refCounters.ActiveCoreSteps || sumHost != refCounters.HostTransactions {
				t.Fatalf("per-die counters do not sum to the single-die reference")
			}
			// Sharding must actually produce cross-die work under the
			// range strategy (every layer spans every die).
			if tc.strategy == mapping.StrategyRange && mesh.Traffic().CrossDieSpikes == 0 {
				t.Fatal("range partition produced no cross-die traffic")
			}
			if tr := mesh.Traffic(); tr.SpikeHops < tr.CrossDieSpikes {
				t.Fatalf("traffic accounting: %d hops < %d messages", tr.SpikeHops, tr.CrossDieSpikes)
			}
		})
	}
}

// TestMultiChipTrafficStrategy pins the point of the traffic-aware
// partitioner: on the standard conformance netlist it must move strictly
// fewer cross-die spikes than the range strategy, while still producing
// the bit-identical results the conformance harness already pins.
func TestMultiChipTrafficStrategy(t *testing.T) {
	const trainN, testN = 15, 6
	ranged := conformanceNet(t, 4, mapping.StrategyRange, emstdp.DFA)
	affine := conformanceNet(t, 4, mapping.StrategyTraffic, emstdp.DFA)
	driveConformance(ranged, trainN, testN)
	driveConformance(affine, trainN, testN)
	rt := ranged.Mesh().Traffic()
	at := affine.Mesh().Traffic()
	if at.CrossDieSpikes >= rt.CrossDieSpikes {
		t.Fatalf("traffic strategy moved %d cross-die spikes, range %d — want strictly fewer",
			at.CrossDieSpikes, rt.CrossDieSpikes)
	}
}

// TestMultiChipMeshLinkDeterminism pins the per-link occupancy counters:
// repeated identical runs and a replica rebuilt through Network.Clone
// accumulate exactly the same load on every directed link.
func TestMultiChipMeshLinkDeterminism(t *testing.T) {
	const trainN, testN = 10, 4
	topo := loihi.Topology{Kind: loihi.TopoMesh}
	run := func(net *Network) []int64 {
		driveConformance(net, trainN, testN)
		return net.Mesh().LinkLoads()
	}
	first := run(conformanceNet(t, 4, mapping.StrategyRange, emstdp.DFA, topo))
	var nonzero int64
	for _, v := range first {
		nonzero += v
	}
	if nonzero == 0 {
		t.Fatal("range-partitioned 4-die board accumulated no link load")
	}
	again := run(conformanceNet(t, 4, mapping.StrategyRange, emstdp.DFA, topo))

	base := conformanceNet(t, 4, mapping.StrategyRange, emstdp.DFA, topo)
	clone, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cloned := run(clone)
	for l := range first {
		if first[l] != again[l] || first[l] != cloned[l] {
			t.Fatalf("link %d load diverges: run %d, rerun %d, clone %d",
				l, first[l], again[l], cloned[l])
		}
	}
}

// TestMultiChipFAConformance repeats the bit-identity check for the FA
// feedback path (relay populations, chained banks) on 2 dies.
func TestMultiChipFAConformance(t *testing.T) {
	const trainN, testN = 15, 6
	ref := conformanceNet(t, 1, mapping.StrategyRange, emstdp.FA)
	refPreds, _ := driveConformance(ref, trainN, testN)
	net := conformanceNet(t, 2, mapping.StrategyRange, emstdp.FA)
	preds, _ := driveConformance(net, trainN, testN)
	for i := range refPreds {
		if preds[i] != refPreds[i] {
			t.Fatalf("FA prediction %d: got %d want %d", i, preds[i], refPreds[i])
		}
	}
	assertWeightsEqual(t, ref, net, "FA 2-die")
}

// TestMultiChipDeterministicRebuild pins the partitioner's determinism
// end to end: building the same sharded config twice yields identical
// placements and identical trained weights.
func TestMultiChipDeterministicRebuild(t *testing.T) {
	a := conformanceNet(t, 3, mapping.StrategyRange, emstdp.DFA)
	b := conformanceNet(t, 3, mapping.StrategyRange, emstdp.DFA)
	pa, pb := a.PartitionPlan(), b.PartitionPlan()
	if len(pa.Pops) != len(pb.Pops) {
		t.Fatalf("placement count %d != %d", len(pa.Pops), len(pb.Pops))
	}
	for i := range pa.Pops {
		ppa, ppb := pa.Pops[i], pb.Pops[i]
		if ppa.Name != ppb.Name || len(ppa.Shards) != len(ppb.Shards) {
			t.Fatalf("placement %d differs: %+v vs %+v", i, ppa, ppb)
		}
		for j := range ppa.Shards {
			if ppa.Shards[j] != ppb.Shards[j] {
				t.Fatalf("placement %d shard %d differs: %+v vs %+v", i, j, ppa.Shards[j], ppb.Shards[j])
			}
		}
	}
	driveConformance(a, 8, 0)
	driveConformance(b, 8, 0)
	assertWeightsEqual(t, a, b, "rebuild")
}

// TestMultiChipEngineGroup drives a sharded board through the engine's
// replica group: parallel evaluation over mesh-backed replicas must
// reproduce the sequential pass (CloneRunner rebuilds the partition
// deterministically).
func TestMultiChipEngineGroup(t *testing.T) {
	net, err := New(func() Config {
		cfg := DefaultConfig(32, 64, 4)
		cfg.Seed = 11
		cfg.Chips = 2
		cfg.Partition = mapping.StrategyRange
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	var train, test []metrics.Sample
	for i := 0; i < 20; i++ {
		x, y := twoClassSample(r, 32)
		train = append(train, metrics.Sample{X: x, Y: y})
	}
	for i := 0; i < 12; i++ {
		x, y := twoClassSample(r, 32)
		test = append(test, metrics.Sample{X: x, Y: y})
	}
	for _, s := range train {
		net.TrainSample(s.X, s.Y)
	}
	seq := make([]int, len(test))
	for i, s := range test {
		seq[i] = net.Predict(s.X)
	}

	grp := engine.NewGroup(net, engine.NewPool(3))
	preds, err := grp.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if preds[i] != seq[i] {
			t.Fatalf("parallel prediction %d: got %d want %d", i, preds[i], seq[i])
		}
	}
}
