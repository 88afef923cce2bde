package loihi

import (
	"testing"
	"testing/quick"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
)

// oneSynapse returns a plastic 1×1 group with W = 0, the given shift and
// rounding seed, and learning inputs x1 (phase-2 pre count), y1 (phase-2
// post count ĥ) and tag (Z).
func oneSynapse(shift uint, seed uint64, x1, y1, tag int64) *SynapseGroup {
	g := NewSynapseGroup("one", ifPop("pre", 1, 10), ifPop("post", 1, 10), 0)
	g.EnableLearning(shift, seed)
	g.preTrace[0] = uint8(x1)
	g.Post.postTrace[0] = uint8(y1)
	g.tag[0] = int32(tag)
	return g
}

// The eq (11) → eq (12) transformation must be exact in the integer
// domain: a learning epoch computing 2·ĥ·x − Z·x with Z = ĥ + h moves
// the weight by (ĥ−h)·x.
func TestEMSTDPRuleEquivalence(t *testing.T) {
	f := func(hHat, h, x uint8) bool {
		y1 := int64(hHat % 65) // ĥ: phase-2 post count
		h1 := int64(h % 65)    // h: phase-1 post count
		x1 := int64(x%64) + 1  // phase-2 pre count (nonzero)
		g := oneSynapse(0, 1, x1, y1, y1+h1)
		g.applyEpochRange(0, 1)
		return g.W[0] == fixed.SatWeight((y1-h1)*x1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Stochastic rounding is unbiased: over many draws the mean equals the
// exact real-valued shift, and it is sign-symmetric.
func TestStochasticShiftRoundUnbiased(t *testing.T) {
	for _, v := range []int64{1, 3, 7, 100, -1, -3, -100, 1000, -12345} {
		const s = 4
		const trials = 4096
		sum := 0.0
		for u := uint64(0); u < trials; u++ {
			// Sweep all low-bit patterns uniformly.
			sum += float64(StochasticShiftRound(v, s, u))
		}
		mean := sum / trials
		exact := float64(v) / 16
		if d := mean - exact; d > 0.01 || d < -0.01 {
			t.Errorf("v=%d: mean %v, exact %v", v, mean, exact)
		}
	}
}

func TestStochasticShiftRoundZeroShift(t *testing.T) {
	if StochasticShiftRound(42, 0, 999) != 42 {
		t.Error("zero shift must be identity")
	}
}

func TestEMSTDPRuleSigns(t *testing.T) {
	for _, c := range []struct {
		name        string
		x1, hHat, h int64
		want        int8
	}{
		{"potentiation", 2, 20, 5, (20 - 5) * 2}, // ĥ > h
		{"depression", 2, 5, 20, (5 - 20) * 2},   // ĥ < h
		{"no error", 2, 12, 12, 0},               // ĥ == h
	} {
		g := oneSynapse(0, 1, c.x1, c.hHat, c.hHat+c.h)
		g.applyEpochRange(0, 1)
		if g.W[0] != c.want {
			t.Errorf("%s: Δw = %d, want %d", c.name, g.W[0], c.want)
		}
	}
}

// A row with 2·ĥ = Z has Δw = 0 on every synapse, so the epoch skips it
// without drawing a rounding word; a row with an error draws one per
// synapse with a nonzero pre-trace.
func TestZeroErrorRowDrawsNoRoundingWord(t *testing.T) {
	const seed = 42
	fresh := rng.New(seed)
	first, second := fresh.Uint64(), fresh.Uint64()

	g := oneSynapse(3, seed, 5, 12, 24)
	g.applyEpochRange(0, 1)
	if got := g.lrnRNG.Uint64(); got != first {
		t.Errorf("zero-error row consumed a rounding word: next draw %#x, want %#x", got, first)
	}

	g = oneSynapse(3, seed, 5, 12, 23)
	g.applyEpochRange(0, 1)
	if got := g.lrnRNG.Uint64(); got != second {
		t.Errorf("error row: next draw %#x, want the second word %#x", got, second)
	}
}

// Full on-chip learning loop: a plastic synapse under the EMSTDP rule
// moves toward the target and saturates rather than overflowing.
func TestOnChipLearningEpoch(t *testing.T) {
	chip := newOneDie(t, DefaultHardware())
	pre := ifPop("pre", 1, 256)
	post := ifPop("post", 1, 256)
	if err := chip.AddPopulation(pre, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := chip.AddPopulation(post, 1, 10); err != nil {
		t.Fatal(err)
	}
	g := NewSynapseGroup("pp", pre, post, 0)
	g.EnableLearning(3, 1)
	if err := chip.Connect(g); err != nil {
		t.Fatal(err)
	}

	pre.SetBiases([]int32{256}) // pre fires every step
	// Phase 1: post silent (weight 0) → tag stays 0, h = 0.
	chip.Run(8)
	chip.ResetPhaseTraces()
	// Phase 2: drive post externally to emulate error correction: bias on.
	post.SetBiases([]int32{128}) // post at half rate: ĥ = 4 over 8 steps
	chip.Run(8)
	chip.ApplyLearning()

	// x1 = 8 (pre spikes in phase 2), y1 = 4, tag = 4 (h=0 in phase 1).
	// Δw = (2·4·8 − 4·8) >> 3 = 4.
	if g.W[0] != 4 {
		t.Errorf("learned weight = %d, want 4", g.W[0])
	}
	if chip.Counters().LearningOps != 1 {
		t.Errorf("learning ops = %d, want 1", chip.Counters().LearningOps)
	}
}

func TestLearningSaturatesAtInt8(t *testing.T) {
	g := &SynapseGroup{
		Name: "sat",
		Pre:  ifPop("pre", 1, 10),
		Post: ifPop("post", 1, 10),
		W:    []int8{120},
	}
	g.EnableLearning(0, 1)
	g.preTrace[0] = 64
	g.Post.postTrace[0] = 64
	g.tag[0] = 64
	g.applyEpochRange(0, g.Post.N) // Δw = (2·64−64)·64 = 4096 → clips at 127
	if g.W[0] != fixed.WeightMax {
		t.Errorf("weight = %d, want saturation at %d", g.W[0], fixed.WeightMax)
	}
}

func TestFrozenPostRowsSkipped(t *testing.T) {
	g := &SynapseGroup{
		Name: "fr",
		Pre:  ifPop("pre", 1, 10),
		Post: ifPop("post", 2, 10),
		W:    []int8{0, 0},
	}
	g.EnableLearning(0, 1)
	g.FrozenPost = []bool{false, true}
	g.preTrace[0] = 10
	g.Post.postTrace[0] = 5
	g.Post.postTrace[1] = 5
	g.tag[0] = 5
	g.tag[1] = 5
	g.applyEpochRange(0, g.Post.N)
	if g.W[0] == 0 {
		t.Error("unfrozen row did not learn")
	}
	if g.W[1] != 0 {
		t.Error("frozen row learned")
	}
}

func TestPhaseTraceSemantics(t *testing.T) {
	chip := newOneDie(t, DefaultHardware())
	pre := ifPop("pre", 1, 256)
	post := ifPop("post", 1, 256)
	if err := chip.AddPopulation(pre, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := chip.AddPopulation(post, 1, 10); err != nil {
		t.Fatal(err)
	}
	g := NewSynapseGroup("pp", pre, post, 0)
	g.EnableLearning(3, 1)
	if err := chip.Connect(g); err != nil {
		t.Fatal(err)
	}
	pre.SetBiases([]int32{256})
	post.SetBiases([]int32{256})
	chip.Run(5) // phase 1: both fire every step
	if g.tag[0] != 5 {
		t.Errorf("tag after phase 1 = %d, want 5", g.tag[0])
	}
	chip.ResetPhaseTraces()
	if g.preTrace[0] != 0 || post.PostTrace(0) != 0 {
		t.Error("phase reset must clear pre/post traces")
	}
	if g.tag[0] != 5 {
		t.Error("phase reset must keep the tag")
	}
	chip.Run(3) // phase 2
	if g.preTrace[0] != 3 || post.PostTrace(0) != 3 {
		t.Errorf("phase-2 traces = %d/%d, want 3/3", g.preTrace[0], post.PostTrace(0))
	}
	if g.tag[0] != 8 {
		t.Errorf("tag spans both phases: %d, want 8", g.tag[0])
	}
	chip.ResetState()
	if g.tag[0] != 0 || g.preTrace[0] != 0 {
		t.Error("sample reset must clear everything")
	}
}
