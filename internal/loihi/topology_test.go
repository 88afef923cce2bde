package loihi

import (
	"strings"
	"testing"
)

// TestTopologyParseAndNormalize pins name resolution, automatic radix
// factorisation and the validation errors.
func TestTopologyParseAndNormalize(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind TopologyKind
	}{{"", TopoLine}, {"line", TopoLine}, {"mesh", TopoMesh}, {"grid", TopoMesh},
		{"torus", TopoTorus}, {"ring", TopoTorus}, {" Mesh ", TopoMesh}} {
		kind, err := ParseTopologyKind(tc.name)
		if err != nil || kind != tc.kind {
			t.Fatalf("ParseTopologyKind(%q) = %v, %v; want %v", tc.name, kind, err, tc.kind)
		}
	}
	if _, err := ParseTopologyKind("hypercube"); err == nil {
		t.Fatal("expected unknown-topology error")
	}

	// Automatic factorisation: most-square RadixX ≥ RadixY for 2-D
	// fabrics, dies×1 for lines and primes.
	for _, tc := range []struct {
		kind   TopologyKind
		dies   int
		rx, ry int
	}{{TopoLine, 6, 6, 1}, {TopoMesh, 12, 4, 3}, {TopoMesh, 4, 2, 2},
		{TopoMesh, 7, 7, 1}, {TopoTorus, 8, 4, 2}, {TopoTorus, 1, 1, 1}} {
		norm, err := (Topology{Kind: tc.kind}).Normalize(tc.dies)
		if err != nil {
			t.Fatalf("%v dies=%d: %v", tc.kind, tc.dies, err)
		}
		if norm.RadixX != tc.rx || norm.RadixY != tc.ry {
			t.Fatalf("%v dies=%d factorised %dx%d, want %dx%d",
				tc.kind, tc.dies, norm.RadixX, norm.RadixY, tc.rx, tc.ry)
		}
		if norm.LinkBandwidth != DefaultLinkBandwidth {
			t.Fatalf("bandwidth default not filled: %d", norm.LinkBandwidth)
		}
	}

	// A bare kind normalises to its automatic factorisation.
	topo, err := Topology{Kind: TopoTorus}.Normalize(6)
	if err != nil || topo.Kind != TopoTorus || topo.RadixX != 3 || topo.RadixY != 2 {
		t.Fatalf("Topology{torus}.Normalize(6) = %+v, %v", topo, err)
	}
	if got := topo.String(); got != "torus3x2" {
		t.Fatalf("String() = %q, want torus3x2", got)
	}

	// Rejections: radix not tiling the dies, 2-D lines, no dies,
	// negative bandwidth.
	if _, err := (Topology{Kind: TopoMesh, RadixX: 3, RadixY: 2}).Normalize(5); err == nil {
		t.Fatal("expected radix/die mismatch error")
	}
	if _, err := (Topology{Kind: TopoLine, RadixX: 2, RadixY: 2}).Normalize(4); err == nil {
		t.Fatal("expected 2-D line rejection")
	}
	if _, err := (Topology{}).Normalize(0); err == nil {
		t.Fatal("expected no-dies error")
	}
	if _, err := (Topology{LinkBandwidth: -1}).Normalize(2); err == nil {
		t.Fatal("expected negative-bandwidth error")
	}
	if _, err := (Topology{Kind: TopoMesh, RadixX: -2, RadixY: -1}).Normalize(2); err == nil {
		t.Fatal("expected invalid-radix error")
	}
}

// walkRoute replays a routed path link by link, asserting each hop
// departs from the die the message is currently on, strictly decreases
// the remaining distance, and ends at the destination.
func walkRoute(t *testing.T, topo Topology, src, dst int) {
	t.Helper()
	path := topo.route(src, dst, nil)
	if len(path) != topo.Hops(src, dst) {
		t.Fatalf("%v %d→%d: route length %d != Hops %d",
			topo, src, dst, len(path), topo.Hops(src, dst))
	}
	cur := src
	for _, l := range path {
		if int(l)/4 != cur {
			t.Fatalf("%v %d→%d: link %s does not depart from die %d",
				topo, src, dst, topo.LinkName(int(l)), cur)
		}
		x, y := cur%topo.RadixX, cur/topo.RadixX
		switch int(l) % 4 {
		case dirPosX:
			x = (x + 1) % topo.RadixX
		case dirNegX:
			x = (x - 1 + topo.RadixX) % topo.RadixX
		case dirPosY:
			y = (y + 1) % topo.RadixY
		case dirNegY:
			y = (y - 1 + topo.RadixY) % topo.RadixY
		}
		next := y*topo.RadixX + x
		if topo.Hops(next, dst) != topo.Hops(cur, dst)-1 {
			t.Fatalf("%v %d→%d: hop %s does not approach the destination",
				topo, src, dst, topo.LinkName(int(l)))
		}
		cur = next
	}
	if cur != dst {
		t.Fatalf("%v %d→%d: route ends on die %d", topo, src, dst, cur)
	}
}

// TestTopologyRoutingAllPairs checks every (src,dst) route on several
// fabrics against the hop metric and grid connectivity.
func TestTopologyRoutingAllPairs(t *testing.T) {
	for _, topo := range []Topology{
		{Kind: TopoLine, RadixX: 5, RadixY: 1},
		{Kind: TopoMesh, RadixX: 3, RadixY: 3},
		{Kind: TopoTorus, RadixX: 3, RadixY: 3},
		{Kind: TopoTorus, RadixX: 4, RadixY: 2},
	} {
		dies := topo.RadixX * topo.RadixY
		for src := 0; src < dies; src++ {
			for dst := 0; dst < dies; dst++ {
				walkRoute(t, topo, src, dst)
			}
		}
	}
}

// TestTopologyRoutingPinned pins concrete XY routes: dimension order
// (X before Y), torus wrap the shorter way, wrap ties going positive.
func TestTopologyRoutingPinned(t *testing.T) {
	mesh := Topology{Kind: TopoMesh, RadixX: 3, RadixY: 3}
	// Die 0 = (0,0) to die 8 = (2,2): +x, +x from die 1, then +y from
	// dies 2 and 5 — X strictly before Y.
	want := []string{"die0:+x", "die1:+x", "die2:+y", "die5:+y"}
	path := mesh.route(0, 8, nil)
	for i, l := range path {
		if name := mesh.LinkName(int(l)); name != want[i] {
			t.Fatalf("mesh3x3 0→8 hop %d = %s, want %s", i, name, want[i])
		}
	}

	ring := Topology{Kind: TopoTorus, RadixX: 4, RadixY: 1}
	if h := ring.Hops(0, 3); h != 1 {
		t.Fatalf("torus4x1 0→3 hops %d, want 1 (wrap)", h)
	}
	if p := ring.route(0, 3, nil); len(p) != 1 || ring.LinkName(int(p[0])) != "die0:-x" {
		t.Fatalf("torus4x1 0→3 should wrap negative, got %v", p)
	}
	// Distance exactly half the ring: tie breaks positive.
	p := ring.route(0, 2, nil)
	if len(p) != 2 || ring.LinkName(int(p[0])) != "die0:+x" || ring.LinkName(int(p[1])) != "die1:+x" {
		t.Fatalf("torus4x1 0→2 tie should go positive, got %v", p)
	}

	// Line topology hop counts reduce to |src-dst|.
	line := Topology{Kind: TopoLine, RadixX: 6, RadixY: 1}
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			want := src - dst
			if want < 0 {
				want = -want
			}
			if h := line.Hops(src, dst); h != want {
				t.Fatalf("line 0..5: Hops(%d,%d) = %d, want %d", src, dst, h, want)
			}
		}
	}

	if name := (Topology{Kind: TopoMesh, RadixX: 2, RadixY: 2}).LinkName(11); name != "die2:-y" {
		t.Fatalf("LinkName(11) = %q, want die2:-y", name)
	}
}

// TestTopologyMeshConstructorErrors pins the error path: a board needs
// at least one die and a tiling radix — no panics.
func TestTopologyMeshConstructorErrors(t *testing.T) {
	for _, dies := range []int{0, -1} {
		if _, err := NewMesh(DefaultHardware(), dies); err == nil {
			t.Fatalf("NewMesh(dies=%d): expected error", dies)
		}
	}
	_, err := NewMeshTopology(DefaultHardware(), 4, Topology{Kind: TopoMesh, RadixX: 3, RadixY: 1})
	if err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("expected radix-tiling error, got %v", err)
	}
}

// TestTopologyCongestionStalls drives a saturating flow over one link
// with bandwidth 1 and pins the congestion counters: per-step load,
// stall cycles, the high-water mark and the per-link occupancy — plus
// their determinism across an identical rebuild and ResetCounters.
func TestTopologyCongestionStalls(t *testing.T) {
	build := func() *Mesh {
		mesh, err := NewMeshTopology(DefaultHardware(), 2, Topology{Kind: TopoLine, LinkBandwidth: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := NewPopulation("src", PopulationConfig{N: 4, Theta: 16, VMin: 0})
		dst := NewPopulation("dst", PopulationConfig{N: 4, Theta: 1 << 20, VMin: 0})
		if err := mesh.AddPopulation(src, 0, 0, 4, 0, 4); err != nil {
			t.Fatal(err)
		}
		if err := mesh.AddPopulation(dst, 1, 0, 4, 0, 4); err != nil {
			t.Fatal(err)
		}
		if err := mesh.Connect(NewDiagonalGroup("sd", src, dst, 1, 0)); err != nil {
			t.Fatal(err)
		}
		src.SetBiases([]int32{16, 16, 16, 16}) // all four fire every step
		return mesh
	}

	mesh := build()
	const steps = 8
	mesh.Run(steps)
	rounds := int64(steps - 1) // first spikes land after step 1's rotate
	tr := mesh.Traffic()
	if tr.CrossDieSpikes != 4*rounds || tr.SpikeHops != 4*rounds {
		t.Fatalf("traffic %+v, want %d messages / hops", tr, 4*rounds)
	}
	// Four messages share a bandwidth-1 link each round: 3 stall cycles
	// per round, high-water mark 4.
	if tr.StallCycles != 3*rounds || tr.MaxLinkLoad != 4 {
		t.Fatalf("congestion %+v, want %d stalls / max load 4", tr, 3*rounds)
	}
	loads := mesh.LinkLoads()
	var sum int64
	for l, v := range loads {
		sum += v
		if v != 0 && mesh.Topology().LinkName(l) != "die0:+x" {
			t.Fatalf("load %d on unexpected link %s", v, mesh.Topology().LinkName(l))
		}
	}
	if sum != tr.SpikeHops {
		t.Fatalf("link loads sum %d != %d spike hops", sum, tr.SpikeHops)
	}

	// Determinism: an identical rebuild reproduces the occupancy exactly.
	again := build()
	again.Run(steps)
	reLoads := again.LinkLoads()
	for l := range loads {
		if loads[l] != reLoads[l] {
			t.Fatalf("link %d load %d != rebuilt %d", l, loads[l], reLoads[l])
		}
	}

	mesh.ResetCounters()
	if tr := mesh.Traffic(); tr != (MeshTraffic{}) {
		t.Fatalf("traffic %+v after ResetCounters", tr)
	}
	for l, v := range mesh.LinkLoads() {
		if v != 0 {
			t.Fatalf("link %d load %d after ResetCounters", l, v)
		}
	}
}

// TestTopologyMeshBitIdentical re-runs the sharded-vs-single bit-identity
// check on 2-D fabrics: topology may change traffic accounting, never
// membranes, spikes, weights or activity counters.
func TestTopologyMeshBitIdentical(t *testing.T) {
	for _, kind := range []TopologyKind{TopoMesh, TopoTorus} {
		t.Run(kind.String(), func(t *testing.T) {
			single, spops, sgroups := buildMeshBench(t, 1)
			sharded, mpops, mgroups := buildMeshBench(t, 2, Topology{Kind: kind})
			for round := 0; round < 2; round++ {
				single.Run(32)
				sharded.Run(32)
				single.ApplyLearning()
				sharded.ApplyLearning()
				for pi := range spops {
					sp, mp := spops[pi], mpops[pi]
					for i := 0; i < sp.N; i++ {
						if sp.Potential(i) != mp.Potential(i) || sp.SpikeBits().Get(i) != mp.SpikeBits().Get(i) {
							t.Fatalf("round %d pop %s compartment %d diverged", round, sp.Name, i)
						}
					}
				}
				for gi := range sgroups {
					for i := range sgroups[gi].W {
						if sgroups[gi].W[i] != mgroups[gi].W[i] {
							t.Fatalf("round %d group %s weight %d: single %d sharded %d",
								round, sgroups[gi].Name, i, sgroups[gi].W[i], mgroups[gi].W[i])
						}
					}
				}
				single.ResetState()
				sharded.ResetState()
			}
			if s, m := single.Counters(), sharded.Counters(); s != m {
				t.Fatalf("aggregated counters diverge:\nsingle %+v\nsharded %+v", s, m)
			}
			if tr := sharded.Traffic(); tr.CrossDieSpikes == 0 || tr.SpikeHops < tr.CrossDieSpikes {
				t.Fatalf("traffic %+v inconsistent on %v fabric", tr, kind)
			}
		})
	}
}
