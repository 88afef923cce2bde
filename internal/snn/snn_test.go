package snn

import (
	"testing"

	"emstdp/internal/rng"
	"emstdp/internal/spike"
)

// constantInput returns a step on which all n presynaptic neurons fire.
func constantInput(n int) *spike.Bitset {
	b := spike.NewBitset(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	return b
}

// With reset-by-subtraction, the spike count over T steps equals
// floor(total drive / θ) — paper eq (2).
func TestIFLayerFloorQuantizedRate(t *testing.T) {
	l := NewIFLayer(rng.New(1), 1, 1, 0, 1.0)
	for _, w := range []float64{0.0, 0.1, 0.37, 0.5, 0.73, 1.0} {
		l.W[0] = w
		l.MarkWeightsDirty()
		l.Reset()
		count := 0
		const T = 64
		for i := 0; i < T; i++ {
			if l.Step(constantInput(1)).Get(0) {
				count++
			}
		}
		want := int(w * T * (1 + 1e-12))
		if count != want {
			t.Errorf("w=%v: %d spikes, want %d", w, count, want)
		}
	}
}

func TestIFLayerBias(t *testing.T) {
	l := NewIFLayer(rng.New(1), 1, 1, 0, 1.0)
	l.Bias[0] = 0.25
	count := 0
	for i := 0; i < 64; i++ {
		if l.Step(spike.NewBitset(1)).Get(0) { // no input spikes, bias only
			count++
		}
	}
	if count != 16 {
		t.Errorf("bias-driven count = %d, want 16", count)
	}
}

func TestIFLayerNegativeDriveFloored(t *testing.T) {
	l := NewIFLayer(rng.New(1), 1, 1, 0, 1.0)
	l.W[0] = -5
	l.MarkWeightsDirty()
	for i := 0; i < 10; i++ {
		l.Step(constantInput(1))
	}
	if l.Potential(0) < l.UMin {
		t.Errorf("membrane %v below floor %v", l.Potential(0), l.UMin)
	}
	// A recovery drive must bring it back within a bounded number of steps.
	l.W[0] = 1.0
	l.MarkWeightsDirty()
	fired := false
	for i := 0; i < 3; i++ {
		if l.Step(constantInput(1)).Get(0) {
			fired = true
		}
	}
	if !fired {
		t.Error("neuron could not recover from inhibition within 3 steps")
	}
}

func TestIFLayerInject(t *testing.T) {
	l := NewIFLayer(rng.New(1), 1, 1, 0, 1.0)
	l.Inject(0, 2.5)
	// Injected charge drives spikes on subsequent (zero-input) steps.
	count := 0
	for i := 0; i < 5; i++ {
		if l.Step(spike.NewBitset(1)).Get(0) {
			count++
		}
	}
	if count != 2 {
		t.Errorf("injection of 2.5θ produced %d spikes, want 2", count)
	}
}

func TestIFLayerReset(t *testing.T) {
	l := NewIFLayer(rng.New(1), 2, 3, 0.5, 1.0)
	l.Step(constantInput(2))
	l.Reset()
	for o := 0; o < 3; o++ {
		if l.Potential(o) != 0 || l.Bits().Get(o) {
			t.Fatal("reset left state behind")
		}
	}
}

func TestIFLayerInputValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input size")
		}
	}()
	NewIFLayer(rng.New(1), 3, 1, 0, 1).Step(spike.NewBitset(2))
}

func TestIFLayerInitRange(t *testing.T) {
	l := NewIFLayer(rng.New(9), 100, 50, 0.2, 1.0)
	for _, w := range l.W {
		if w < -0.2 || w >= 0.2 {
			t.Fatalf("weight %v outside init range", w)
		}
	}
}

func TestErrChannelSignedSpikes(t *testing.T) {
	e := NewErrChannel(1, 1.0)
	e.Accumulate(0, 0.6)
	if s := e.Step(nil); s[0] != 0 {
		t.Errorf("sub-threshold fired: %d", s[0])
	}
	e.Accumulate(0, 0.6) // 1.2 total
	if s := e.Step(nil); s[0] != 1 {
		t.Errorf("positive error spike missing: %d", s[0])
	}
	// Residual 0.2 kept: reset-by-subtraction on the error channel too.
	e.Accumulate(0, -1.5) // -1.3
	if s := e.Step(nil); s[0] != -1 {
		t.Errorf("negative error spike missing: %d", s[0])
	}
}

// Over a long window, the signed spike count matches the accumulated error
// to within one θ quantum — the error channels are a rate-domain code for
// the real-valued error.
func TestErrChannelRateCodesError(t *testing.T) {
	e := NewErrChannel(1, 1.0)
	total := 0
	drive := 0.37
	const T = 200
	for i := 0; i < T; i++ {
		e.Accumulate(0, drive)
		total += int(e.Step(nil)[0])
	}
	want := drive * T
	if float64(total) < want-1.001 || float64(total) > want+1.001 {
		t.Errorf("signed spike total %d, accumulated error %v", total, want)
	}
}

func TestErrChannelGate(t *testing.T) {
	e := NewErrChannel(2, 1.0)
	e.Accumulate(0, 1.2)
	e.Accumulate(1, 1.2)
	s := e.Step([]bool{true, false})
	if s[0] != 1 {
		t.Error("ungated neuron should fire")
	}
	if s[1] != 0 {
		t.Error("gated neuron must not fire")
	}
	// The gated threshold crossing consumed a θ of membrane (soma reset
	// fires regardless of the AND gate), so only the 0.2 residue remains
	// and an ungated step without new drive stays silent.
	s = e.Step([]bool{true, true})
	if s[1] != 0 {
		t.Error("gated spike should have been discarded, not banked")
	}
}

func TestErrChannelReset(t *testing.T) {
	e := NewErrChannel(1, 1.0)
	e.Accumulate(0, 0.9)
	e.Reset()
	e.Accumulate(0, 0.2)
	if s := e.Step(nil); s[0] != 0 {
		t.Error("reset did not clear accumulator")
	}
}
