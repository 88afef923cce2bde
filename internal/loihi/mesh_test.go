package loihi

import (
	"slices"
	"testing"

	"emstdp/internal/rng"
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
		g.MarkWeightsDirty()
		g.EnableLearning(EMSTDPRule(6), uint64(100+gi))
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
