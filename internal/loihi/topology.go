package loihi

import (
	"fmt"
	"strings"
)

// This file gives the mesh a real NoC: dies sit on a parameterised 1-D
// or 2-D topology, every cross-die spike message expands into the
// deterministic XY-routed sequence of directed links it traverses, and
// the mesh charges each traversal to a per-link occupancy counter. The
// per-step load of a link against its bandwidth yields modeled
// congestion stalls — the fidelity step from "hops = |src-dst|" to a
// believable multi-chip latency story. Routing only ever changes
// traffic, occupancy and modeled latency; simulation results are
// computed before any message is routed, so the bit-identity
// conformance contract of the mesh is untouched.

// TopologyKind selects the arrangement of dies on the board.
type TopologyKind int

const (
	// TopoLine is a 1-D chain — the original abstract fabric, kept as
	// the default so hop counts reduce to |src-dst| exactly.
	TopoLine TopologyKind = iota
	// TopoMesh is a 2-D RadixX×RadixY mesh with XY dimension-order
	// routing (X first, then Y) and no wrap-around links.
	TopoMesh
	// TopoTorus is the mesh plus wrap-around links; each dimension
	// routes the shorter way around, ties going the positive direction.
	TopoTorus
)

// String names the kind for reports and CSV columns.
func (k TopologyKind) String() string {
	switch k {
	case TopoLine:
		return "line"
	case TopoMesh:
		return "mesh"
	case TopoTorus:
		return "torus"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(k))
}

// ParseTopologyKind resolves a topology name (CLI flags, options
// wiring). The empty string means the default line fabric.
func ParseTopologyKind(name string) (TopologyKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "line":
		return TopoLine, nil
	case "mesh", "grid":
		return TopoMesh, nil
	case "torus", "ring":
		return TopoTorus, nil
	}
	return 0, fmt.Errorf("loihi: unknown topology %q (want line, mesh or torus)", name)
}

// DefaultLinkBandwidth is the number of spike messages one directed
// link forwards per timestep before congestion stalls accrue.
const DefaultLinkBandwidth = 64

// Topology parameterises the board's NoC. The zero value normalises to
// the 1-D line fabric at the board's die count with the default link
// bandwidth, so existing callers see the pre-topology behaviour.
type Topology struct {
	Kind TopologyKind
	// RadixX and RadixY are the grid dimensions; RadixX*RadixY must
	// equal the die count. Both zero means "factorise automatically":
	// a line keeps dies×1, mesh/torus pick the most-square RadixX ≥
	// RadixY factorisation.
	RadixX, RadixY int
	// LinkBandwidth is the per-step message capacity of one directed
	// link; per-step load beyond it is counted as stall cycles.
	// 0 means DefaultLinkBandwidth.
	LinkBandwidth int
}

// AutoTopology returns kind with its automatic radix factorisation for
// a board of dies chips: a line stays dies×1; mesh and torus take the
// most-square RadixX×RadixY with RadixX ≥ RadixY (primes degrade to
// dies×1).
func AutoTopology(kind TopologyKind, dies int) Topology {
	if kind == TopoLine || dies < 1 {
		return Topology{Kind: kind, RadixX: dies, RadixY: 1}
	}
	ry := 1
	for f := 2; f*f <= dies; f++ {
		if dies%f == 0 {
			ry = f
		}
	}
	return Topology{Kind: kind, RadixX: dies / ry, RadixY: ry}
}

// Normalize validates the topology against the board's die count and
// fills defaults (automatic radix factorisation, default bandwidth).
func (t Topology) Normalize(dies int) (Topology, error) {
	if dies < 1 {
		return Topology{}, fmt.Errorf("loihi: topology needs at least one die, got %d", dies)
	}
	if t.LinkBandwidth < 0 {
		return Topology{}, fmt.Errorf("loihi: negative link bandwidth %d", t.LinkBandwidth)
	}
	if t.LinkBandwidth == 0 {
		t.LinkBandwidth = DefaultLinkBandwidth
	}
	if t.RadixX == 0 && t.RadixY == 0 {
		auto := AutoTopology(t.Kind, dies)
		t.RadixX, t.RadixY = auto.RadixX, auto.RadixY
		return t, nil
	}
	if t.RadixX < 1 || t.RadixY < 1 {
		return Topology{}, fmt.Errorf("loihi: topology radix %dx%d invalid", t.RadixX, t.RadixY)
	}
	if t.RadixX*t.RadixY != dies {
		return Topology{}, fmt.Errorf("loihi: topology radix %dx%d does not tile %d dies",
			t.RadixX, t.RadixY, dies)
	}
	if t.Kind == TopoLine && t.RadixY != 1 {
		return Topology{}, fmt.Errorf("loihi: line topology must have RadixY=1, got %dx%d",
			t.RadixX, t.RadixY)
	}
	return t, nil
}

// String renders the normalised topology for reports, e.g. "mesh2x2".
func (t Topology) String() string {
	return fmt.Sprintf("%s%dx%d", t.Kind, t.RadixX, t.RadixY)
}

// Directed link encoding: each die owns four outgoing links, one per
// direction, whether or not the grid edge exists (absent edges are
// simply never routed over). Link l belongs to die l/4 and points in
// direction l%4.
const (
	dirPosX = 0
	dirNegX = 1
	dirPosY = 2
	dirNegY = 3
)

// numLinks returns the directed-link table size for the topology.
func (t Topology) numLinks() int { return 4 * t.RadixX * t.RadixY }

// LinkName names directed link l for reports: "die3:+x".
func (t Topology) LinkName(l int) string {
	dir := [4]string{"+x", "-x", "+y", "-y"}[l%4]
	return fmt.Sprintf("die%d:%s", l/4, dir)
}

// stepToward returns the direction (0 = positive, 1 = negative) and the
// next coordinate of one dimension-order hop from c toward d on a
// dimension of radix r. A torus wraps the shorter way around, ties
// going positive; otherwise the hop moves straight toward d.
func stepToward(c, d, r int, torus bool) (dirSign, next int) {
	if torus {
		fwd := d - c
		if fwd < 0 {
			fwd += r
		}
		if 2*fwd <= r {
			return 0, (c + 1) % r
		}
		return 1, (c - 1 + r) % r
	}
	if d > c {
		return 0, c + 1
	}
	return 1, c - 1
}

// route appends to path the directed links an XY-routed message from
// die src to die dst traverses, in traversal order: all X hops first,
// then all Y hops. Deterministic — the same (src,dst) always yields
// the same link sequence — which is what makes per-link occupancy
// counters reproducible across runs and replica rebuilds.
func (t Topology) route(src, dst int, path []int32) []int32 {
	torus := t.Kind == TopoTorus
	x, y := src%t.RadixX, src/t.RadixX
	dx, dy := dst%t.RadixX, dst/t.RadixX
	for x != dx {
		sign, nx := stepToward(x, dx, t.RadixX, torus)
		path = append(path, int32(4*(y*t.RadixX+x)+dirPosX+sign))
		x = nx
	}
	for y != dy {
		sign, ny := stepToward(y, dy, t.RadixY, torus)
		path = append(path, int32(4*(y*t.RadixX+x)+dirPosY+sign))
		y = ny
	}
	return path
}

// Hops returns the XY route length from src to dst — the per-message
// hop count the traffic counters accumulate.
func (t Topology) Hops(src, dst int) int {
	torus := t.Kind == TopoTorus
	h := dimDist(src%t.RadixX, dst%t.RadixX, t.RadixX, torus)
	return h + dimDist(src/t.RadixX, dst/t.RadixX, t.RadixY, torus)
}

// dimDist is the hop count along one dimension.
func dimDist(c, d, r int, torus bool) int {
	dist := d - c
	if dist < 0 {
		dist = -dist
	}
	if torus && r-dist < dist {
		dist = r - dist
	}
	return dist
}
