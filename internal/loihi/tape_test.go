package loihi

import (
	"slices"
	"testing"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
)

// buildTapeChip wires a bias-driven input into a hidden population
// through a taped group whose weights are large enough to saturate the
// accumulator, plus a second, untaped group into the same population
// connected after it (the error-injection position in the EMSTDP
// netlist).
func buildTapeChip(t *testing.T, steps int) (oneDie, *SynapseGroup, *Population) {
	t.Helper()
	chip := newOneDie(t, DefaultHardware())
	in := NewPopulation("in", PopulationConfig{N: 64, Theta: 256, VMin: -256})
	side := NewPopulation("side", PopulationConfig{N: 8, Theta: 256, VMin: -256})
	hid := NewPopulation("hid", PopulationConfig{N: 16, Theta: 1 << 20, VMin: -(1 << 20)})
	for i, p := range []*Population{in, side, hid} {
		if err := chip.AddPopulation(p, i*8, 10); err != nil {
			t.Fatal(err)
		}
	}
	taped := NewSynapseGroup("taped", in, hid, 16)
	other := NewSynapseGroup("other", side, hid, 10)
	r := rng.New(3)
	for i := range taped.W {
		taped.W[i] = int8(r.Intn(148) - 20) // mostly positive: sums run into StateMax
	}
	for i := range other.W {
		other.W[i] = int8(r.Intn(255) - 127)
	}
	taped.EnableLearning(8, 1)
	taped.EnableDriveTape(steps)
	for _, g := range []*SynapseGroup{taped, other} {
		if err := chip.Connect(g); err != nil {
			t.Fatal(err)
		}
	}
	if chip.FirstInto(hid) != Connector(taped) || chip.FirstInto(in) != nil {
		t.Fatal("FirstInto does not follow connect order")
	}
	bias := make([]int32, in.N)
	for i := range bias {
		bias[i] = int32(r.Intn(200))
	}
	in.SetBiases(bias)
	sideBias := make([]int32, side.N)
	for i := range sideBias {
		sideBias[i] = int32(r.Intn(256))
	}
	side.SetBiases(sideBias)
	return chip, taped, hid
}

// TestDriveTapeReplayBitIdentical records the taped group's drive over
// one phase and replays it over a second phase from the same reset
// state, against a twin delivering live in both. Every step the hidden
// membranes and spikes, the taped group's presynaptic trace and the
// activity counters must agree — with the accumulator saturating, and
// with a later group adding on top of the replayed drive.
func TestDriveTapeReplayBitIdentical(t *testing.T) {
	const steps = 32
	replay, tg, rHid := buildTapeChip(t, steps)
	live, lg, lHid := buildTapeChip(t, steps)
	for _, c := range []oneDie{replay, live} {
		c.ResetState()
	}
	for s := 0; s < steps; s++ {
		tg.SetTape(TapeRecord, s)
		replay.Step()
		live.Step()
	}
	tg.SetTape(TapeLive, 0)
	if !slices.Contains(tg.tape, fixed.StateMax) {
		t.Fatal("no recorded drive saturated: the test does not cover saturation")
	}
	for _, c := range []oneDie{replay, live} {
		c.ResetPhaseTraces()
		c.ResetMembranes()
	}
	for s := 0; s < steps; s++ {
		tg.SetTape(TapeReplay, s)
		replay.Step()
		live.Step()
		for i := 0; i < rHid.N; i++ {
			if rHid.Potential(i) != lHid.Potential(i) {
				t.Fatalf("step %d neuron %d: replayed v %d, live %d", s, i, rHid.Potential(i), lHid.Potential(i))
			}
		}
		if !slices.Equal(rHid.SpikeBits().Words(), lHid.SpikeBits().Words()) {
			t.Fatalf("step %d: replayed spikes differ from live", s)
		}
		if !slices.Equal(tg.preTrace, lg.preTrace) {
			t.Fatalf("step %d: replayed pre trace %v, live %v", s, tg.preTrace, lg.preTrace)
		}
		if replay.Counters() != live.Counters() {
			t.Fatalf("step %d: replayed counters %+v, live %+v", s, replay.Counters(), live.Counters())
		}
	}
}
