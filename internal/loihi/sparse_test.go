package loihi

import "testing"

func TestSparseGroupDelivery(t *testing.T) {
	chip := newOneDie(t, DefaultHardware())
	a := ifPop("a", 3, 10)
	b := ifPop("b", 3, 1000)
	if err := chip.AddPopulation(a, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := chip.AddPopulation(b, 1, 10); err != nil {
		t.Fatal(err)
	}
	g := NewSparseGroup("ab", a, b, 1)
	g.Add(0, 1, 50) // a0 → b1 with weight 50<<1 = 100
	g.Add(0, 2, -10)
	if err := chip.Connect(g); err != nil {
		t.Fatal(err)
	}
	a.SetBiases([]int32{10, 0, 0}) // only a0 fires
	chip.Step()
	chip.Step()
	if got := b.Potential(1); got != 100 {
		t.Errorf("b1 membrane = %d, want 100", got)
	}
	if got := b.Potential(2); got != -20 {
		t.Errorf("b2 membrane = %d, want -20", got)
	}
	if got := b.Potential(0); got != 0 {
		t.Errorf("b0 membrane = %d, want 0 (no synapse)", got)
	}
	// Two synapses from one spike per step, delivered over 1 step.
	if ev := chip.Counters().SynapticEvents; ev != 2 {
		t.Errorf("synaptic events = %d, want 2", ev)
	}
}

func TestDiagonalGroup(t *testing.T) {
	a := ifPop("a", 4, 10)
	b := ifPop("b", 4, 10)
	g := NewDiagonalGroup("inj", a, b, 20, 0)
	if g.Synapses() != 4 {
		t.Errorf("synapses = %d, want 4", g.Synapses())
	}
	if g.MaxFanIn() != 1 {
		t.Errorf("fan-in = %d, want 1", g.MaxFanIn())
	}
}

func TestDiagonalGroupSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDiagonalGroup("bad", ifPop("a", 2, 10), ifPop("b", 3, 10), 1, 0)
}

func TestSparseMaxFanIn(t *testing.T) {
	a := ifPop("a", 3, 10)
	b := ifPop("b", 2, 10)
	g := NewSparseGroup("ab", a, b, 0)
	g.Add(0, 0, 1)
	g.Add(1, 0, 1)
	g.Add(2, 0, 1)
	g.Add(0, 1, 1)
	if g.MaxFanIn() != 3 {
		t.Errorf("max fan-in = %d, want 3", g.MaxFanIn())
	}
}

func TestPhaseGateBlocksUntilControlFires(t *testing.T) {
	chip := newOneDie(t, DefaultHardware())
	p := ifPop("p", 1, 10)
	ctrl := ifPop("ctrl", 1, 10)
	if err := chip.AddPopulation(p, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := chip.AddPopulation(ctrl, 1, 10); err != nil {
		t.Fatal(err)
	}
	p.SetPhaseGate(ctrl)
	p.SetBiases([]int32{10}) // p's soma crosses threshold every step

	// Phase 1: control silent → no output spikes.
	for i := 0; i < 5; i++ {
		chip.Step()
		if p.SpikeBits().Get(0) {
			t.Fatal("phase-gated population fired while control silent")
		}
	}
	// Phase 2: host biases the control neuron on.
	ctrl.SetBiases([]int32{10})
	chip.Step() // control fires now; p's gate still saw silence
	chip.Step() // gate sees control's spike → p passes
	if !p.SpikeBits().Get(0) {
		t.Error("phase-gated population should fire once control is active")
	}
}

func TestSparseGroupFixedUnderLearning(t *testing.T) {
	// applyEpochRange and stepLearningRange must be no-ops for sparse
	// groups.
	a := ifPop("a", 1, 10)
	b := ifPop("b", 1, 10)
	g := NewSparseGroup("ab", a, b, 0)
	g.Add(0, 0, 7)
	g.stepLearningRange(0, b.N)
	if ops := g.applyEpochRange(0, b.N); ops != 0 {
		t.Errorf("sparse applyEpochRange ops = %d", ops)
	}
	if g.fanOut[0][0].W != 7 {
		t.Error("sparse weight changed")
	}
}

func TestQuantizeInto(t *testing.T) {
	a := ifPop("a", 1, 10)
	b := ifPop("b", 1, 10)
	g := NewSparseGroup("ab", a, b, 2) // unit = 4
	if got := g.QuantizeInto(0.5, 256); got != 32 {
		t.Errorf("quantized = %d, want 32 (0.5·256/4)", got)
	}
	if got := g.QuantizeInto(-100, 256); got != -128 {
		t.Errorf("quantized = %d, want saturation at -128", got)
	}
}
