package loihi

// Var names a learning-engine input variable — the locally available
// quantities of eq (9): synaptic traces and variables visible at one
// synapse.
type Var int

const (
	// VarOne is the constant 1 (products with no variable dependence).
	VarOne Var = iota
	// VarX1 is the presynaptic trace (EMSTDP: phase-2 pre spike count).
	VarX1
	// VarY1 is the postsynaptic trace (EMSTDP: phase-2 post count ĥ).
	VarY1
	// VarTag is the synaptic tag (EMSTDP: Z = ĥ + h across both phases).
	VarTag
	// VarW is the current weight mantissa.
	VarW
)

// Factor is one multiplicand (V + C) of a product term.
type Factor struct {
	V Var
	C int64
}

// Product is S · Π(Vi + Ci): a signed microcode scale S times a product
// of factors.
type Product struct {
	Scale   int64
	Factors []Factor
}

// Rule is a sum-of-products weight adaptation rule (eq 9):
//
//	Δw = StochasticShiftRound(Σ_i S_i · Π_j (V_{i,j} + C_{i,j}), StochasticShift)
//
// applied at learning epochs. Alongside it the engine runs the per-step
// tag micro-op dt = y0, which EMSTDP uses to accumulate Z = ĥ + h across
// both phases (§III-B, eq 12). The tag is stored per postsynaptic row:
// with dt = y0 every synapse in a row holds the same value, so the
// simulator collapses the storage without changing rule semantics.
//
// Every product must carry a bare presynaptic-trace factor
// {V: VarX1, C: 0}. The engine skips each synapse whose pre-trace is
// zero, which is exact only when every term vanishes at x1 = 0; a
// factor x1 + C with C ≠ 0 does not. EnableLearning panics on a rule
// that breaks the condition.
//
// FrozenPost, when set, excludes postsynaptic rows from updates — the
// incremental-learning protocol freezes old-class classifier rows this
// way (§IV-B).
type Rule struct {
	Products   []Product
	FrozenPost []bool
	// StochasticShift right-shifts the sum of products with probabilistic
	// rounding — Loihi's stochastic rounding mode, which implements the
	// power-of-two learning rate. With 8-bit mantissas, deterministic
	// rounding kills every update smaller than half a weight quantum;
	// stochastic rounding preserves them in expectation, which is what
	// makes small-learning-rate on-chip training converge. Zero applies
	// the sum unshifted.
	StochasticShift uint
}

// EvalRaw computes the sum of products for one synapse, before the
// stochastic shift.
func (r *Rule) EvalRaw(x1, y1, tag, w int64) int64 {
	var dw int64
	for _, p := range r.Products {
		dw += r.product(p, x1, y1, tag, w)
	}
	return dw
}

// gatedByPreTrace reports whether every product carries a bare x1
// factor, so the rule yields Δw = 0 wherever x1 = 0.
func (r *Rule) gatedByPreTrace() bool {
	for _, p := range r.Products {
		gated := false
		for _, f := range p.Factors {
			if f == (Factor{V: VarX1}) {
				gated = true
				break
			}
		}
		if !gated {
			return false
		}
	}
	return true
}

func (r *Rule) product(p Product, x1, y1, tag, w int64) int64 {
	term := p.Scale
	for _, f := range p.Factors {
		var v int64
		switch f.V {
		case VarOne:
			v = 1
		case VarX1:
			v = x1
		case VarY1:
			v = y1
		case VarTag:
			v = tag
		case VarW:
			v = w
		}
		term *= v + f.C
	}
	return term
}

// StochasticShiftRound right-shifts v by s, rounding up with probability
// equal to the discarded fraction (u supplies the random bits).
func StochasticShiftRound(v int64, s uint, u uint64) int64 {
	if s == 0 {
		return v
	}
	mask := int64(1)<<s - 1
	neg := v < 0
	if neg {
		v = -v
	}
	q := v >> s
	frac := v & mask
	if int64(u&uint64(mask)) < frac {
		q++
	}
	if neg {
		return -q
	}
	return q
}

// EMSTDPRule builds the paper's eq (12) update in sum-of-products form:
//
//	Δw = 2η·ĥ·x − η·Z·x
//
// with η = 2^-shift applied by stochastic rounding. Because Z = ĥ + h,
// the raw sum equals (ĥ−h)·x — the reference delta rule of eq (7) —
// while using only end-of-phase-2 state, which is the whole point of the
// eq (11)→(12) transformation: Loihi has no way to bank the phase-1
// count h for later use.
func EMSTDPRule(shift uint) *Rule {
	return &Rule{
		StochasticShift: shift,
		Products: []Product{
			{Scale: 2, Factors: []Factor{{V: VarY1}, {V: VarX1}}},
			{Scale: -1, Factors: []Factor{{V: VarTag}, {V: VarX1}}},
		},
	}
}
