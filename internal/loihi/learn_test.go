package loihi

import (
	"testing"
	"testing/quick"

	"emstdp/internal/fixed"
)

// The eq (11) → eq (12) transformation must be exact in the integer
// domain: 2·ĥ·x − Z·x == (ĥ−h)·x when Z = ĥ + h.
func TestEMSTDPRuleEquivalence(t *testing.T) {
	rule := EMSTDPRule(3)
	f := func(hHat, h, x uint8) bool {
		y1 := int64(hHat % 65) // ĥ: phase-2 post count
		h1 := int64(h % 65)    // h: phase-1 post count
		x1 := int64(x%64) + 1  // phase-2 pre count (nonzero)
		tag := y1 + h1         // Z accumulated across both phases
		return rule.EvalRaw(x1, y1, tag, 0) == (y1-h1)*x1
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
	rule := EMSTDPRule(0) // no scaling: exact products
	// ĥ > h: potentiation proportional to (ĥ−h)·x.
	if got := rule.EvalRaw(10, 20, 25, 0); got != (20-5)*10 {
		t.Errorf("potentiation = %d, want %d", got, 150)
	}
	// ĥ < h: depression.
	if got := rule.EvalRaw(10, 5, 25, 0); got != (5-20)*10 {
		t.Errorf("depression = %d, want %d", got, -150)
	}
	// ĥ == h: no change.
	if got := rule.EvalRaw(10, 12, 24, 0); got != 0 {
		t.Errorf("no-error update = %d, want 0", got)
	}
}

func TestRuleEvalVarW(t *testing.T) {
	// A weight-decay-style rule: Δw = -w.
	rule := &Rule{Products: []Product{{Scale: -1, Factors: []Factor{{V: VarW}}}}}
	if got := rule.EvalRaw(0, 0, 0, 100); got != -100 {
		t.Errorf("decay = %d, want -100", got)
	}
}

func TestRuleEvalConstants(t *testing.T) {
	// Δw = (x1 + 2)·(y1 − 1), scale 1, no shift.
	rule := &Rule{Products: []Product{{Scale: 1, Factors: []Factor{
		{V: VarX1, C: 2}, {V: VarY1, C: -1},
	}}}}
	if got := rule.EvalRaw(3, 4, 0, 0); got != 5*3 {
		t.Errorf("eval = %d, want 15", got)
	}
}

// applyEpochRange skips synapses with a zero pre-trace, so a rule with a
// product that is nonzero at x1 = 0 must be refused at EnableLearning.
func TestEnableLearningRejectsRuleWithoutBareX1(t *testing.T) {
	for name, rule := range map[string]*Rule{
		"decay": {Products: []Product{{Scale: -1, Factors: []Factor{{V: VarW}}}}},
		"offset_x1": {Products: []Product{{Scale: 1, Factors: []Factor{
			{V: VarX1, C: 1}, {V: VarY1},
		}}}},
	} {
		t.Run(name, func(t *testing.T) {
			g := NewSynapseGroup("g", ifPop("pre", 1, 10), ifPop("post", 1, 10), 0)
			defer func() {
				if recover() == nil {
					t.Fatal("EnableLearning accepted a rule that is nonzero at x1 = 0")
				}
			}()
			g.EnableLearning(rule, 1)
		})
	}
}

// Full on-chip learning loop: a plastic synapse under the EMSTDP rule
// moves toward the target and saturates rather than overflowing.
func TestOnChipLearningEpoch(t *testing.T) {
	chip := New(DefaultHardware())
	pre := ifPop("pre", 1, 256)
	post := ifPop("post", 1, 256)
	if err := chip.AddPopulation(pre, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := chip.AddPopulation(post, 1, 10); err != nil {
		t.Fatal(err)
	}
	g := NewSynapseGroup("pp", pre, post, 0)
	g.EnableLearning(EMSTDPRule(3), 1)
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
	rule := EMSTDPRule(0)
	g := &SynapseGroup{
		Name: "sat",
		Pre:  ifPop("pre", 1, 10),
		Post: ifPop("post", 1, 10),
		W:    []int8{120},
	}
	g.EnableLearning(rule, 1)
	g.preTrace[0] = 64
	g.Post.postTrace[0] = 64
	g.tag[0] = 64
	g.applyEpochRange(0, g.Post.N) // Δw = (2·64−64)·64 = 4096 → clips at 127
	if g.W[0] != fixed.WeightMax {
		t.Errorf("weight = %d, want saturation at %d", g.W[0], fixed.WeightMax)
	}
}

func TestFrozenPostRowsSkipped(t *testing.T) {
	rule := EMSTDPRule(0)
	rule.FrozenPost = []bool{false, true}
	g := &SynapseGroup{
		Name: "fr",
		Pre:  ifPop("pre", 1, 10),
		Post: ifPop("post", 2, 10),
		W:    []int8{0, 0},
	}
	g.EnableLearning(rule, 1)
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
	chip := New(DefaultHardware())
	pre := ifPop("pre", 1, 256)
	post := ifPop("post", 1, 256)
	if err := chip.AddPopulation(pre, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := chip.AddPopulation(post, 1, 10); err != nil {
		t.Fatal(err)
	}
	g := NewSynapseGroup("pp", pre, post, 0)
	g.EnableLearning(EMSTDPRule(3), 1)
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
