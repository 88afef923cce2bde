package loihi

import (
	"slices"
	"testing"

	"emstdp/internal/rng"
	"emstdp/internal/trace"
)

// mustMesh builds a line-topology board or fails the test.
func mustMesh(tb testing.TB, dies int) *Mesh {
	tb.Helper()
	mesh, err := NewMesh(DefaultHardware(), dies)
	if err != nil {
		tb.Fatal(err)
	}
	return mesh
}

// buildPair wires the same 200→100→10 plastic netlist once on a single
// chip and once sharded across a mesh (hidden layer split between two
// dies), sharing nothing but the construction recipe. An optional
// topology overrides the default line fabric (traffic model only —
// results must not depend on it).
func buildMeshBench(tb testing.TB, dies int, topo ...Topology) (*Mesh, []*Population, []*SynapseGroup) {
	tb.Helper()
	var mesh *Mesh
	var err error
	if len(topo) > 0 {
		mesh, err = NewMeshTopology(DefaultHardware(), dies, topo[0])
	} else {
		mesh, err = NewMesh(DefaultHardware(), dies)
	}
	if err != nil {
		tb.Fatal(err)
	}
	in := NewPopulation("in", PopulationConfig{N: 200, Theta: 256, VMin: -256})
	hid := NewPopulation("hid", PopulationConfig{N: 100, Theta: 256, VMin: -256})
	out := NewPopulation("out", PopulationConfig{N: 10, Theta: 256, VMin: -256})
	if dies == 1 {
		for i, p := range []*Population{in, hid, out} {
			if err := mesh.AddPopulation(p, 0, 0, p.N, i*20, 10); err != nil {
				tb.Fatal(err)
			}
		}
	} else {
		// in whole on die 0, hid split across die 0/1, out on die 1.
		if err := mesh.AddPopulation(in, 0, 0, 200, 0, 10); err != nil {
			tb.Fatal(err)
		}
		if err := mesh.AddPopulation(hid, 0, 0, 50, 20, 10); err != nil {
			tb.Fatal(err)
		}
		if err := mesh.AddPopulation(hid, 1, 50, 100, 0, 10); err != nil {
			tb.Fatal(err)
		}
		if err := mesh.AddPopulation(out, 1, 0, 10, 5, 10); err != nil {
			tb.Fatal(err)
		}
	}
	g1 := NewSynapseGroup("ih", in, hid, 0)
	g2 := NewSynapseGroup("ho", hid, out, 0)
	r := rng.New(5)
	for gi, g := range []*SynapseGroup{g1, g2} {
		for i := range g.W {
			g.W[i] = int8(r.Intn(21) - 10)
		}
		g.EnableLearning(6, uint64(100+gi))
		if err := mesh.Connect(g); err != nil {
			tb.Fatal(err)
		}
	}
	biases := make([]int32, 200)
	for i := range biases {
		biases[i] = int32(r.Intn(90))
	}
	in.SetBiases(biases)
	return mesh, []*Population{in, hid, out}, []*SynapseGroup{g1, g2}
}

// TestMeshBitIdenticalToChip steps a sharded mesh and a single-die mesh
// of the same netlist in lock-step, with learning epochs, and compares
// every membrane, spike, weight and the aggregated counters each round.
func TestMeshBitIdenticalToChip(t *testing.T) {
	single, spops, sgroups := buildMeshBench(t, 1)
	sharded, mpops, mgroups := buildMeshBench(t, 2)

	for round := 0; round < 4; round++ {
		single.Run(32)
		sharded.Run(32)
		for gi := range sgroups {
			if !slices.Equal(sgroups[gi].tag, mgroups[gi].tag) {
				t.Fatalf("round %d group %s: single tags %v, mesh %v",
					round, sgroups[gi].Name, sgroups[gi].tag, mgroups[gi].tag)
			}
		}
		single.ApplyLearning()
		sharded.ApplyLearning()
		for pi := range spops {
			sp, mp := spops[pi], mpops[pi]
			for i := 0; i < sp.N; i++ {
				if sp.Potential(i) != mp.Potential(i) {
					t.Fatalf("round %d pop %s compartment %d: single v=%d mesh v=%d",
						round, sp.Name, i, sp.Potential(i), mp.Potential(i))
				}
				if sp.SpikeBits().Get(i) != mp.SpikeBits().Get(i) {
					t.Fatalf("round %d pop %s compartment %d: spike mismatch", round, sp.Name, i)
				}
			}
		}
		for gi := range sgroups {
			for i := range sgroups[gi].W {
				if sgroups[gi].W[i] != mgroups[gi].W[i] {
					t.Fatalf("round %d group %s weight %d: single %d mesh %d",
						round, sgroups[gi].Name, i, sgroups[gi].W[i], mgroups[gi].W[i])
				}
			}
		}
		single.ResetState()
		sharded.ResetState()
	}
	if s, m := single.Counters(), sharded.Counters(); s != m {
		t.Fatalf("aggregated counters diverge:\nsingle %+v\nmesh   %+v", s, m)
	}
	if tr := sharded.Traffic(); tr.CrossDieSpikes == 0 || tr.SpikeHops != tr.CrossDieSpikes {
		// All shards sit one hop apart on a 2-die board.
		t.Fatalf("traffic %+v inconsistent for a 2-die board", sharded.Traffic())
	}
	if tr := single.Traffic(); tr != (MeshTraffic{}) {
		t.Fatalf("single-die board accumulated traffic %+v", tr)
	}
}

// TestMeshTrafficMulticast pins the multicast accounting: one spike
// consumed by synapse shards on two remote dies is two messages with
// the right hop counts, while same-die consumption is free.
func TestMeshTrafficMulticast(t *testing.T) {
	mesh := mustMesh(t, 3)
	src := NewPopulation("src", PopulationConfig{N: 1, Theta: 16, VMin: 0})
	near := NewPopulation("near", PopulationConfig{N: 1, Theta: 1 << 20, VMin: 0})
	far := NewPopulation("far", PopulationConfig{N: 1, Theta: 1 << 20, VMin: 0})
	local := NewPopulation("local", PopulationConfig{N: 1, Theta: 1 << 20, VMin: 0})
	for _, reg := range []struct {
		p   *Population
		die int
	}{{src, 0}, {local, 0}, {near, 1}, {far, 2}} {
		if err := mesh.AddPopulation(reg.p, reg.die, 0, 1, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	for _, tgt := range []*Population{local, near, far} {
		if err := mesh.Connect(NewDiagonalGroup("to-"+tgt.Name, src, tgt, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	src.SetBiases([]int32{16}) // fires every step
	steps := 8
	mesh.Run(steps)
	// The first spike lands in the buffers after step 1's rotate, so
	// steps-1 delivery rounds saw an active source.
	wantMsgs := int64(2 * (steps - 1))       // near + far, per spike
	wantHops := int64((1 + 2) * (steps - 1)) // |0-1| + |0-2|
	if tr := mesh.Traffic(); tr.CrossDieSpikes != wantMsgs || tr.SpikeHops != wantHops {
		t.Fatalf("traffic %+v, want %d messages / %d hops", tr, wantMsgs, wantHops)
	}
}

// TestMeshManyDies guards the board-size generality of the traffic
// bookkeeping: a very wide board registers and steps without panicking.
func TestMeshManyDies(t *testing.T) {
	const dies = 300
	mesh := mustMesh(t, dies)
	src := NewPopulation("src", PopulationConfig{N: 1, Theta: 16, VMin: 0})
	dst := NewPopulation("dst", PopulationConfig{N: 1, Theta: 1 << 20, VMin: 0})
	if err := mesh.AddPopulation(src, 0, 0, 1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := mesh.AddPopulation(dst, dies-1, 0, 1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Connect(NewDiagonalGroup("sd", src, dst, 1, 0)); err != nil {
		t.Fatal(err)
	}
	src.SetBiases([]int32{16})
	mesh.Run(3)
	if tr := mesh.Traffic(); tr.CrossDieSpikes != 2 || tr.SpikeHops != 2*(dies-1) {
		t.Fatalf("traffic %+v, want 2 messages / %d hops", tr, 2*(dies-1))
	}
}

// TestMeshRegistrationErrors pins the registration-time validation.
func TestMeshRegistrationErrors(t *testing.T) {
	mesh := mustMesh(t, 2)
	a := NewPopulation("a", PopulationConfig{N: 10, Theta: 16, VMin: 0})
	b := NewPopulation("b", PopulationConfig{N: 10, Theta: 16, VMin: 0})
	if err := mesh.AddPopulation(a, 5, 0, 10, 0, 4); err == nil {
		t.Fatal("expected die-out-of-range error")
	}
	if err := mesh.AddPopulation(a, 0, 0, 5, 0, 4); err != nil {
		t.Fatal(err)
	}
	// a only half-registered: connecting must fail.
	if err := mesh.Connect(NewDiagonalGroup("ab", a, b, 1, 0)); err == nil {
		t.Fatal("expected incomplete-registration error")
	}
	if err := mesh.AddPopulation(a, 1, 5, 10, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Connect(NewDiagonalGroup("ab2", a, b, 1, 0)); err == nil {
		t.Fatal("expected unregistered-destination error")
	}
	if err := mesh.AddPopulation(b, 0, 0, 10, 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Connect(NewDiagonalGroup("ab3", a, b, 1, 0)); err != nil {
		t.Fatal(err)
	}
}

// refTraffic replays the mesh's traffic model the direct way, as a
// reference for its route tables: for every spike, every subscribed
// remote die the neuron's fan-out reaches, with the XY path worked out
// on the spot. samples lists each step's per-link loads in the order the
// links were first touched — the order of the mesh's link counters.
type refTraffic struct {
	traffic MeshTraffic
	loads   []int64
	samples []trace.Event
}

// step accounts the spikes m is about to deliver; call it before m.Step.
func (r *refTraffic) step(m *Mesh) {
	stepLoad := make([]int64, len(r.loads))
	var touched []int32
	for _, mp := range m.pops {
		for _, k := range mp.p.ActiveSpikes() {
			src := mp.uniformDie
			if src < 0 {
				src = int(mp.dieOf[k])
			}
			for _, d := range mp.subDies {
				if d == src || !mp.reach[d][k] {
					continue
				}
				r.traffic.CrossDieSpikes++
				for _, l := range m.topo.route(src, d, nil) {
					r.traffic.SpikeHops++
					if stepLoad[l] == 0 {
						touched = append(touched, l)
					}
					stepLoad[l]++
				}
			}
		}
	}
	bw := int64(m.topo.LinkBandwidth)
	for _, l := range touched {
		load := stepLoad[l]
		r.loads[l] += load
		r.samples = append(r.samples, trace.Event{Kind: trace.KindCounter, Name: m.topo.LinkName(int(l)), Value: load})
		r.traffic.MaxLinkLoad = max(r.traffic.MaxLinkLoad, load)
		if load > bw {
			r.traffic.StallCycles += load - bw
		}
	}
}

// TestMeshRouteTablesLateConnect steps a 2×2 range mesh, then registers
// a population and connects a second group out of the already-subscribed
// hidden population — a sparse one whose fan-out reaches the new die
// from only some hidden neurons — and steps again. The traffic counters,
// the per-link loads and the per-step link counter samples must match
// the direct per-spike walk throughout: the route tables are rebuilt by
// the late registration, not left stale.
func TestMeshRouteTablesLateConnect(t *testing.T) {
	mesh := buildRangeMeshBench(t)
	tr := trace.New()
	mesh.SetTracer(tr)
	ref := refTraffic{loads: make([]int64, len(mesh.LinkLoads()))}
	hid := mesh.pops[1].p
	lateFired := 0
	run := func(steps int) {
		for i := 0; i < steps; i++ {
			for _, k := range hid.ActiveSpikes() {
				if k >= 25 && k < 50 {
					lateFired++
				}
			}
			ref.step(mesh)
			mesh.Step()
		}
	}
	run(16)
	side := NewPopulation("side", PopulationConfig{N: 10, Theta: 256, VMin: -256})
	if err := mesh.AddPopulation(side, 0, 0, 10, 30, 10); err != nil {
		t.Fatal(err)
	}
	// hid rows 0..24 live on die 0 with side (local), rows 25..49 on
	// die 1 (one new message each); rows 50..99 reach no side neuron.
	late := NewSparseGroup("hs", hid, side, 0)
	for k := 0; k < 50; k++ {
		late.Add(k, k%10, 1)
	}
	if err := mesh.Connect(late); err != nil {
		t.Fatal(err)
	}
	lateFired = 0
	run(32)
	if lateFired == 0 {
		t.Fatal("no hidden neuron on die 1 fired after the late connect: the check proves nothing")
	}

	if got := mesh.Traffic(); got != ref.traffic {
		t.Fatalf("traffic %+v, reference walk %+v", got, ref.traffic)
	}
	if got := mesh.LinkLoads(); !slices.Equal(got, ref.loads) {
		t.Fatalf("link loads %v, reference walk %v", got, ref.loads)
	}
	var links *trace.Track
	for _, tk := range tr.Tracks() {
		if tk.Name() == "mesh-links" {
			links = tk
		}
	}
	if links == nil || links.Dropped() != 0 {
		t.Fatal("mesh-links track missing or overwritten")
	}
	got := links.Events()
	if len(got) != len(ref.samples) {
		t.Fatalf("%d link counter samples, reference walk %d", len(got), len(ref.samples))
	}
	for i, e := range got {
		if e.Name != ref.samples[i].Name || e.Value != ref.samples[i].Value {
			t.Fatalf("link counter sample %d is %s=%d, reference walk %s=%d",
				i, e.Name, e.Value, ref.samples[i].Name, ref.samples[i].Value)
		}
	}
}

// TestMeshDieCountersPerShard pins each die's own activity counters on a
// 2×2 range mesh whose shard edges fall inside bitset words: Spikes is
// the popcount of the die's shards of every population, summed over
// steps, and CompartmentUpdates is steps × the compartments it hosts.
func TestMeshDieCountersPerShard(t *testing.T) {
	mesh := buildRangeMeshBench(t)
	in, hid, out := mesh.pops[0].p, mesh.pops[1].p, mesh.pops[2].p
	type shard struct {
		p      *Population
		lo, hi int
	}
	// buildRangeMeshBench's layout: in and hid cut in four, out on die 3.
	hosted := make([][]shard, 4)
	for d := range hosted {
		hosted[d] = []shard{{in, 50 * d, 50 * (d + 1)}, {hid, 25 * d, 25 * (d + 1)}}
	}
	hosted[3] = append(hosted[3], shard{out, 0, 10})
	want := make([]int64, 4)
	mesh.OnStep = func() {
		for d, shards := range hosted {
			for _, s := range shards {
				for i := s.lo; i < s.hi; i++ {
					if s.p.SpikeBits().Get(i) {
						want[d]++
					}
				}
			}
		}
	}
	const steps = 64
	mesh.Run(steps)
	for d, shards := range hosted {
		if want[d] == 0 {
			t.Fatalf("die %d hosts no spike: the check proves nothing", d)
		}
		c := mesh.DieCounters(d)
		if c.Spikes != want[d] {
			t.Fatalf("die %d counts %d spikes, its shards fired %d", d, c.Spikes, want[d])
		}
		n := 0
		for _, s := range shards {
			n += s.hi - s.lo
		}
		if c.CompartmentUpdates != steps*int64(n) {
			t.Fatalf("die %d counts %d compartment updates, want %d steps × %d hosted",
				d, c.CompartmentUpdates, steps, n)
		}
	}
}
