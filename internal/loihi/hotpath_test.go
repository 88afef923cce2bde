package loihi

import (
	"testing"

	"emstdp/internal/rng"
)

// buildStepBench wires the paper's 200→100→10 dense training shape with
// bias-driven inputs at roughly the rate-coded activity level. An
// optional preset delivery mode is selected BEFORE any group is
// connected — SetDelivery must persist and apply to later connections.
func buildStepBench(tb testing.TB, preset ...DeliveryMode) *Chip {
	tb.Helper()
	chip := New(DefaultHardware())
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
		g.MarkWeightsDirty()
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
// comparing every membrane, spike vector and counter each step.
func TestDeliveryKernelsBitIdentical(t *testing.T) {
	dense := buildStepBench(t)
	packed := buildStepBench(t)
	dense.SetDelivery(DeliveryDense)
	packed.SetDelivery(DeliveryPacked)
	// Set-then-connect ordering: the persisted mode must produce the
	// same run as selecting it after wiring.
	chips := []*Chip{
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
					if dp.Spikes()[i] != cp.Spikes()[i] {
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

// TestMeshDeliverySetThenConnect pins the order-independence contract
// directly: a delivery mode selected before any group exists is applied
// to groups connected afterwards, on both a single chip and a mesh.
func TestMeshDeliverySetThenConnect(t *testing.T) {
	chip := New(DefaultHardware())
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

// TestActiveSpikesMatchesSpikes pins the sparse view to the dense one
// across steps and resets.
func TestActiveSpikesMatchesSpikes(t *testing.T) {
	chip := buildStepBench(t)
	check := func() {
		for _, e := range chip.pops {
			p := e.p
			act := p.ActiveSpikes()
			j := 0
			for i, s := range p.Spikes() {
				if !s {
					continue
				}
				if j >= len(act) || act[j] != int32(i) {
					t.Fatalf("pop %s: ActiveSpikes %v inconsistent with Spikes", p.Name, act)
				}
				j++
			}
			if j != len(act) {
				t.Fatalf("pop %s: %d stale active entries", p.Name, len(act)-j)
			}
		}
	}
	for step := 0; step < 64; step++ {
		chip.Step()
		check()
	}
	chip.ResetMembranes()
	check()
	chip.ResetState()
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
