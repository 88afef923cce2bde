package loihi

import (
	"testing"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
)

// buildStepBench wires the paper's 200→100→10 dense training shape with
// bias-driven inputs at roughly the rate-coded activity level. An
// optional preset delivery mode is selected BEFORE any group is
// connected — SetDelivery must persist and apply to later connections.
func buildStepBench(tb testing.TB, preset ...DeliveryMode) oneDie {
	tb.Helper()
	chip := newOneDie(tb, DefaultHardware())
	if len(preset) > 0 {
		chip.SetDelivery(preset[0])
	}
	in := NewPopulation("in", PopulationConfig{N: 200, Theta: 256, VMin: -256})
	hid := NewPopulation("hid", PopulationConfig{N: 100, Theta: 256, VMin: -256})
	out := NewPopulation("out", PopulationConfig{N: 10, Theta: 256, VMin: -256})
	for i, p := range []*Population{in, hid, out} {
		if err := chip.AddPopulation(p, i*20, 10); err != nil {
			tb.Fatal(err)
		}
	}
	g1 := NewSynapseGroup("ih", in, hid, 0)
	g2 := NewSynapseGroup("ho", hid, out, 0)
	r := rng.New(5)
	for _, g := range []*SynapseGroup{g1, g2} {
		for i := range g.W {
			g.W[i] = int8(r.Intn(21) - 10)
		}
		if err := chip.Connect(g); err != nil {
			tb.Fatal(err)
		}
	}
	biases := make([]int32, 200)
	for i := range biases {
		biases[i] = int32(r.Intn(90)) // ~17% mean firing density
	}
	in.SetBiases(biases)
	return chip
}

// TestDeliveryKernelsBitIdentical steps identical chips across both
// kernels — the reference dense scan and the packed word-traversal
// default — and, for each kernel, both call orders (SetDelivery after
// all Connects, and SetDelivery on the empty chip before any Connect),
// comparing every membrane, spike vector and counter each step. The
// saturating input (checkSaturatingDelivery) then runs on one die and on
// the 2×2 range mesh.
func TestDeliveryKernelsBitIdentical(t *testing.T) {
	checkSaturatingDelivery(t, 1)
	checkSaturatingDelivery(t, 4)

	dense := buildStepBench(t)
	packed := buildStepBench(t)
	dense.SetDelivery(DeliveryDense)
	packed.SetDelivery(DeliveryPacked)
	// Set-then-connect ordering: the persisted mode must produce the
	// same run as selecting it after wiring.
	chips := []oneDie{
		dense, packed,
		buildStepBench(t, DeliveryDense),
		buildStepBench(t, DeliveryPacked),
	}
	for step := 0; step < 256; step++ {
		for _, c := range chips {
			c.Step()
		}
		for pi := range dense.pops {
			dp := dense.pops[pi].p
			for _, c := range chips[1:] {
				cp := c.pops[pi].p
				for i := 0; i < dp.N; i++ {
					if dp.Potential(i) != cp.Potential(i) {
						t.Fatalf("step %d pop %s compartment %d: dense v=%d other v=%d",
							step, dp.Name, i, dp.Potential(i), cp.Potential(i))
					}
					if dp.SpikeBits().Get(i) != cp.SpikeBits().Get(i) {
						t.Fatalf("step %d pop %s compartment %d: spike mismatch", step, dp.Name, i)
					}
				}
			}
		}
	}
	for i, c := range chips[1:] {
		if d, o := dense.Counters(), c.Counters(); d != o {
			t.Fatalf("counters diverge (chip %d):\ndense %+v\nother %+v", i+1, d, o)
		}
	}
}

// buildSaturatingBench wires two groups into one post population P of
// 30 rows. "park" (A→P, Exp 13) delivers first and leaves a random third
// of P's rows near +StateMax or clamped there, a third near or at
// StateMin, and the rest near zero. "top" (B→P, Exp 8) then delivers on
// top. A row parked high climbs on B's low half (+127) and falls on its
// high half (−128), which fires less often, so its partial sums can
// cross StateMax and come back, where the saturating sequence and a
// plain sum differ; a row parked low mirrors it, and a row near zero has
// random weights. Row classes are drawn per row, so a four-row block
// mixes rows near a bound with rows far from both. On four dies (2×2
// mesh) P is range-split at 7/15/22, inside the packed kernel's row
// blocks. Both groups record a drive tape of steps rows, which holds the
// accumulators each delivery leaves.
func buildSaturatingBench(tb testing.TB, dies int, dm DeliveryMode, steps int) (mesh *Mesh, park, top *SynapseGroup) {
	tb.Helper()
	mesh, err := NewMeshTopology(DefaultHardware(), dies, AutoTopology(TopoMesh, dies))
	if err != nil {
		tb.Fatal(err)
	}
	mesh.SetDelivery(dm)
	a := NewPopulation("a", PopulationConfig{N: 16, Theta: 256, VMin: -256})
	b := NewPopulation("b", PopulationConfig{N: 32, Theta: 256, VMin: -256})
	p := NewPopulation("p", PopulationConfig{N: 30, Theta: 256, VMin: -256})
	cuts := []int{0, 7, 15, 22, 30}
	if dies == 1 {
		cuts = []int{0, 30}
	}
	for die := 0; die+1 < len(cuts); die++ {
		if err := mesh.AddPopulation(p, die, cuts[die], cuts[die+1], 0, 8); err != nil {
			tb.Fatal(err)
		}
	}
	if err := mesh.AddPopulation(a, dies-1, 0, a.N, 8, 8); err != nil {
		tb.Fatal(err)
	}
	if err := mesh.AddPopulation(b, 0, 0, b.N, 16, 8); err != nil {
		tb.Fatal(err)
	}
	r := rng.New(11)
	park = NewSynapseGroup("park", a, p, 13)
	top = NewSynapseGroup("top", b, p, 8)
	for o := 0; o < p.N; o++ {
		sign := int8(1)
		switch r.Intn(3) {
		case 0: // near zero
			for k := 0; k < a.N; k++ {
				park.W[o*a.N+k] = int8(r.Intn(7) - 3)
			}
			for k := 0; k < b.N; k++ {
				top.W[o*b.N+k] = int8(r.Intn(256) - 128)
			}
			continue
		case 1:
			sign = -1
		}
		for k := 0; k < a.N; k++ {
			park.W[o*a.N+k] = sign * int8(80+r.Intn(48))
		}
		for k := 0; k < b.N; k++ {
			if (k < b.N/2) == (sign > 0) {
				top.W[o*b.N+k] = 127
			} else {
				top.W[o*b.N+k] = -128
			}
		}
	}
	for _, g := range []*SynapseGroup{park, top} {
		g.EnableDriveTape(steps)
		if err := mesh.Connect(g); err != nil {
			tb.Fatal(err)
		}
	}
	biasA, biasB := make([]int32, a.N), make([]int32, b.N)
	for k := range biasA {
		biasA[k] = int32(100 + r.Intn(100))
	}
	for k := range biasB {
		if k < b.N/2 {
			biasB[k] = int32(150 + r.Intn(100))
		} else {
			biasB[k] = int32(20 + r.Intn(60))
		}
	}
	a.SetBiases(biasA)
	b.SetBiases(biasB)
	return mesh, park, top
}

// checkSaturatingDelivery steps buildSaturatingBench's board under both
// kernels and compares, every step, the accumulators each group leaves
// (its drive tape row), every membrane and spike, and at the end every
// counter. It fails unless the input reached both of the packed kernel's
// paths: a row whose accumulator lay at least reach =
// len(active)·128·2^Exp inside the state range before "top" delivered
// (the plain sum), and a row whose saturating sum differs from its plain
// sum (an accumulator that saturated).
func checkSaturatingDelivery(t *testing.T, dies int) {
	t.Helper()
	const steps = 256
	dense, dPark, dTop := buildSaturatingBench(t, dies, DeliveryDense, steps)
	packed, pPark, pTop := buildSaturatingBench(t, dies, DeliveryPacked, steps)
	preN, n := pTop.Pre.N, pTop.Post.N
	fast, saturated := 0, 0
	for step := 0; step < steps; step++ {
		active := append([]int32(nil), pTop.Pre.ActiveSpikes()...)
		for _, g := range []*SynapseGroup{dPark, dTop, pPark, pTop} {
			g.SetTape(TapeRecord, step)
		}
		dense.Step()
		packed.Step()
		for gi, g := range []*SynapseGroup{pPark, pTop} {
			want := []*SynapseGroup{dPark, dTop}[gi].tapeRow
			for o, v := range g.tapeRow {
				if v != want[o] {
					t.Fatalf("%d dies, step %d: %s leaves row %d at %d, dense reference %d",
						dies, step, g.Name, o, v, want[o])
				}
			}
		}
		reach := int64(len(active)) << (pTop.Exp + 7)
		for o := 0; o < n; o++ {
			sum := int64(pPark.tapeRow[o])
			if sum >= fixed.StateMin+reach && sum <= fixed.StateMax-reach {
				fast++
			}
			for _, k := range active {
				sum += int64(pTop.W[o*preN+int(k)]) << pTop.Exp
			}
			if sum != int64(pTop.tapeRow[o]) {
				saturated++
			}
		}
		for pi, dp := range dense.pops {
			pp := packed.pops[pi].p
			for i := 0; i < dp.p.N; i++ {
				if dp.p.Potential(i) != pp.Potential(i) || dp.p.SpikeBits().Get(i) != pp.SpikeBits().Get(i) {
					t.Fatalf("%d dies, step %d pop %s compartment %d: dense v=%d packed v=%d",
						dies, step, pp.Name, i, dp.p.Potential(i), pp.Potential(i))
				}
			}
		}
	}
	if d, p := dense.Counters(), packed.Counters(); d != p {
		t.Fatalf("%d dies: counters diverge:\ndense  %+v\npacked %+v", dies, d, p)
	}
	if fast == 0 || saturated == 0 {
		t.Fatalf("%d dies: %d plain-sum rows, %d saturated rows: the input misses a path", dies, fast, saturated)
	}
	t.Logf("%d dies: %d plain-sum rows, %d saturated rows over %d steps", dies, fast, saturated, steps)
}

// TestMeshDeliverySetThenConnect pins the order-independence contract
// directly: a delivery mode selected before any group exists is applied
// to groups connected afterwards, on a one-die and a two-die mesh.
func TestMeshDeliverySetThenConnect(t *testing.T) {
	chip := newOneDie(t, DefaultHardware())
	chip.SetDelivery(DeliveryDense)
	a := NewPopulation("a", PopulationConfig{N: 4, Theta: 16, VMin: 0})
	b := NewPopulation("b", PopulationConfig{N: 4, Theta: 16, VMin: 0})
	for i, p := range []*Population{a, b} {
		if err := chip.AddPopulation(p, i*2, 2); err != nil {
			t.Fatal(err)
		}
	}
	g := NewSynapseGroup("ab", a, b, 0)
	if err := chip.Connect(g); err != nil {
		t.Fatal(err)
	}
	if g.delivery != DeliveryDense {
		t.Fatalf("chip group connected after SetDelivery runs %v, want %v", g.delivery, DeliveryDense)
	}

	mesh := mustMesh(t, 2)
	mesh.SetDelivery(DeliveryDense)
	c := NewPopulation("c", PopulationConfig{N: 4, Theta: 16, VMin: 0})
	d := NewPopulation("d", PopulationConfig{N: 4, Theta: 16, VMin: 0})
	if err := mesh.AddPopulation(c, 0, 0, 4, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := mesh.AddPopulation(d, 1, 0, 4, 0, 2); err != nil {
		t.Fatal(err)
	}
	sg := NewDiagonalGroup("cd", c, d, 1, 0)
	if err := mesh.Connect(sg); err != nil {
		t.Fatal(err)
	}
	if sg.delivery != DeliveryDense {
		t.Fatalf("mesh group connected after SetDelivery runs %v, want %v", sg.delivery, DeliveryDense)
	}
}

// buildRangeMeshBench wires buildStepBench's 200→100→10 shape on a 2×2
// mesh, every population range-split across the dies the way the
// mapping package's range strategy cuts it: in at 50/100/150, hid at
// 25/50/75 — shard edges inside bitset words — and out on die 3. Both
// groups learn, so the tag micro-op runs on the split ranges too.
func buildRangeMeshBench(tb testing.TB) *Mesh {
	tb.Helper()
	mesh, err := NewMeshTopology(DefaultHardware(), 4, AutoTopology(TopoMesh, 4))
	if err != nil {
		tb.Fatal(err)
	}
	in := NewPopulation("in", PopulationConfig{N: 200, Theta: 256, VMin: -256})
	hid := NewPopulation("hid", PopulationConfig{N: 100, Theta: 256, VMin: -256})
	out := NewPopulation("out", PopulationConfig{N: 10, Theta: 256, VMin: -256})
	for die := 0; die < 4; die++ {
		if err := mesh.AddPopulation(in, die, 50*die, 50*(die+1), 0, 10); err != nil {
			tb.Fatal(err)
		}
		if err := mesh.AddPopulation(hid, die, 25*die, 25*(die+1), 10, 10); err != nil {
			tb.Fatal(err)
		}
	}
	if err := mesh.AddPopulation(out, 3, 0, 10, 20, 10); err != nil {
		tb.Fatal(err)
	}
	r := rng.New(5)
	for gi, g := range []*SynapseGroup{NewSynapseGroup("ih", in, hid, 0), NewSynapseGroup("ho", hid, out, 0)} {
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
	return mesh
}

// checkActiveMatchesBits fails unless p's active list is exactly the
// ascending set bits of its spike bitset.
func checkActiveMatchesBits(t *testing.T, p *Population) {
	t.Helper()
	act := p.ActiveSpikes()
	bits := p.SpikeBits()
	j := 0
	for i := 0; i < p.N; i++ {
		if !bits.Get(i) {
			continue
		}
		if j >= len(act) || act[j] != int32(i) {
			t.Fatalf("pop %s: ActiveSpikes %v inconsistent with SpikeBits", p.Name, act)
		}
		j++
	}
	if j != len(act) {
		t.Fatalf("pop %s: %d stale active entries", p.Name, len(act)-j)
	}
}

// TestActiveSpikesMatchesSpikes pins the sparse view to the bitset
// across steps and resets, on one die and on a 2×2 range mesh whose
// shards share bitset words.
func TestActiveSpikesMatchesSpikes(t *testing.T) {
	chip := buildStepBench(t)
	mesh := buildRangeMeshBench(t)
	check := func() {
		for _, e := range chip.pops {
			checkActiveMatchesBits(t, e.p)
		}
		for _, mp := range mesh.pops {
			checkActiveMatchesBits(t, mp.p)
		}
	}
	fired := 0
	for step := 0; step < 64; step++ {
		chip.Step()
		mesh.Step()
		check()
		fired += len(mesh.pops[1].p.ActiveSpikes())
	}
	if fired == 0 {
		t.Fatal("mesh hidden layer never fired: the check proves nothing")
	}
	chip.ResetMembranes()
	mesh.ResetMembranes()
	check()
	chip.ResetState()
	mesh.ResetState()
	check()
}

// BenchmarkLoihiStep measures the simulator's raw step rate on the dense
// training shape with the production (packed) delivery.
func BenchmarkLoihiStep(b *testing.B) {
	chip := buildStepBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Step()
	}
}

// BenchmarkLoihiMeshStep is BenchmarkLoihiStep's shape on the 2×2 range
// mesh: four dies' sub-phases, cross-die routing and shards that share
// bitset words.
func BenchmarkLoihiMeshStep(b *testing.B) {
	mesh := buildRangeMeshBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mesh.Step()
	}
}

// BenchmarkLoihiStep_DenseDelivery is the reference kernel's rate, for
// the packed-vs-dense ratio.
func BenchmarkLoihiStep_DenseDelivery(b *testing.B) {
	chip := buildStepBench(b)
	chip.SetDelivery(DeliveryDense)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Step()
	}
}

// TestPackedDeliverSeesInPlaceWeightWrite writes SynapseGroup.W in place
// between two steps, with no call in between, and checks that the very
// next step's packed delivery uses the new weights: bit-identical to the
// dense reference given the same write, and diverging from a chip that
// kept the old weights.
func TestPackedDeliverSeesInPlaceWeightWrite(t *testing.T) {
	packed, dense, kept := buildStepBench(t), buildStepBench(t, DeliveryDense), buildStepBench(t)
	chips := []oneDie{packed, dense, kept}
	for step := 0; step < 16; step++ {
		for _, c := range chips {
			c.Step()
		}
	}
	for _, c := range chips[:2] {
		r := rng.New(9)
		for _, e := range c.groups {
			w := e.g.(*SynapseGroup).W
			for i := range w {
				w[i] = int8(r.Intn(41) - 20)
			}
		}
	}
	diverged := false
	for step := 0; step < 32; step++ {
		for _, c := range chips {
			c.Step()
		}
		for pi, e := range packed.pops {
			pp, dp, kp := e.p, dense.pops[pi].p, kept.pops[pi].p
			for i := 0; i < pp.N; i++ {
				if pp.Potential(i) != dp.Potential(i) || pp.SpikeBits().Get(i) != dp.SpikeBits().Get(i) {
					t.Fatalf("step %d pop %s compartment %d: packed v=%d, dense v=%d after the in-place write",
						step, pp.Name, i, pp.Potential(i), dp.Potential(i))
				}
				if pp.Potential(i) != kp.Potential(i) {
					diverged = true
				}
			}
		}
	}
	if p, d := packed.Counters(), dense.Counters(); p != d {
		t.Fatalf("counters diverge:\npacked %+v\ndense  %+v", p, d)
	}
	if !diverged {
		t.Fatal("the rewritten weights changed no membrane: the check proves nothing")
	}
}
