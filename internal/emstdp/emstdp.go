// Package emstdp implements the EMSTDP learning algorithm — the
// error-modulated, spike-timing-dependent-plasticity approximation of
// backpropagation that the paper adapts for on-chip learning — in full
// precision. This is the paper's "Python (FP)" baseline: identical
// two-phase spiking dynamics to the chip implementation, but float64
// weights and no hardware constraints.
//
// Operation per training sample (§III-B):
//
//	Phase 1 (steps 0..T):   the forward network responds to the input and
//	                        settles at spike counts h.
//	Phase 2 (steps T..2T):  label neurons fire at the target rate; the
//	                        spike-based loss (eq 6) feeds error-channel
//	                        neurons whose signed spikes propagate through
//	                        fixed random feedback weights (FA or DFA) and
//	                        are injected into the forward neurons, driving
//	                        their counts to the targets ĥ.
//	Update (at 2T):         Δw = η·(ĥ−h)·h_pre (eq 7), using phase-2
//	                        presynaptic counts — the same quantities the
//	                        chip's traces hold at the end of phase 2.
//
// The input side of a sample is fixed when it is programmed. Each
// input's spike train depends only on its quantized rate, so the encoder
// serves precomputed step bitsets (see the spike package) and its phase
// counts — the presynaptic counts eq (7) uses for layer 0 — are the
// trains' popcounts, known before phase 1 runs.
//
// Phase 2 replays phase 1's input side instead of recomputing it. The
// phase boundary resets every membrane and nothing writes the weights
// before the update, so the encoder emits the same spikes step for step
// in both phases, and layer 0's drive (Bias plus the weights of those
// spikes, which never reads the membrane) is the same too. A training
// pass therefore records layer 0's drive per phase-1 step; phase 2 steps
// neither the encoder nor layer 0's gather, finishing layer 0 from the
// recorded drive. Error injections act on the membrane only, so the
// replay is bit-identical to re-stepping. Likewise the h′ gates (eq 4)
// read only the phase-1 counts, which are final at the phase boundary,
// so they are latched there once rather than recomputed every step.
//
// Counts are normalised by the phase length so the update is in rate
// units: Δw = η·((ĥ−h)/T)·(h_pre/T).
package emstdp

import (
	"fmt"
	"strings"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
	"emstdp/internal/snn"
	"emstdp/internal/spike"
)

// FeedbackMode selects how errors reach hidden layers (§III-A).
type FeedbackMode int

const (
	// FA (feedback alignment) propagates error spikes layer by layer
	// through fixed random matrices, one error population per hidden
	// layer.
	FA FeedbackMode = iota
	// DFA (direct feedback alignment) broadcasts the output error spikes
	// straight to every hidden layer through one fixed random matrix per
	// layer — fewer neurons and far fewer feedback synapses.
	DFA
)

// String names the mode as the paper does.
func (m FeedbackMode) String() string {
	if m == DFA {
		return "DFA"
	}
	return "FA"
}

// ParseFeedbackMode resolves a feedback-mode name as the CLIs spell it,
// case-insensitively: fa or dfa.
func ParseFeedbackMode(name string) (FeedbackMode, error) {
	switch strings.ToLower(name) {
	case "fa":
		return FA, nil
	case "dfa":
		return DFA, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want fa or dfa)", name)
}

// Config parameterises an EMSTDP network of dense trainable layers.
type Config struct {
	// LayerSizes lists neuron counts [input, hidden..., output].
	LayerSizes []int
	// T is the phase length in timesteps (the paper uses 64).
	T int
	// Eta is the learning rate (the paper uses 2^-3).
	Eta float64
	// Mode selects FA or DFA feedback.
	Mode FeedbackMode
	// Theta is the forward firing threshold.
	Theta float64
	// ThetaErr is the error-channel threshold: the error granularity.
	ThetaErr float64
	// WInit scales forward weight init: U(-WInit/√fanIn, +WInit/√fanIn).
	WInit float64
	// BInit scales feedback weight init: U(-BInit/√src, +BInit/√src).
	BInit float64
	// Inject is the membrane charge (in units of Theta) added per error
	// spike in phase 2 at the OUTPUT layer. It must exceed 1: error
	// neurons fire at most once per step, so with gain g the correction
	// loop can overcome up to (g−1)·θ per step of opposing synaptic
	// drive; at g=1 a neuron whose weights have drifted negative can
	// never be pulled back above threshold and its learning deadlocks.
	Inject float64
	// InjectHidden is the membrane charge per error spike at hidden
	// layers. The output loop is closed (errors stop once the rate hits
	// the target) so it tolerates a high gain; the hidden corrections
	// are open-loop random projections, and a gain this large would move
	// hidden rates by multiples of their value per sample, saturating
	// the layer within tens of samples. Zero selects the default.
	InjectHidden float64
	// GateHidden applies the h′ activity gate (eq 4) to hidden error
	// neurons — the multi-compartment AND of §III-A.
	GateHidden bool
	// GateHi is the saturation bound of the shifted-ReLU derivative: a
	// hidden neuron whose phase-1 count is ≥ GateHi has h′ = 0 and
	// receives no corrections. Must be well below T: correction
	// truncation is asymmetric (a rate cannot fall below zero but can
	// rise toward saturation), and without a tight bound the hidden
	// rates ratchet upward until the layer's code is saturated and
	// class-blind. Zero selects the default T/2.
	GateHi int
	// WClipK bounds each forward weight to ±WClipK·(WInit/√fanIn) — the
	// full-precision mirror of the chip's int8 weight range, which clips
	// at the same multiple via the quantization headroom. Zero disables
	// clipping.
	WClipK float64
	// QuantBits, when nonzero, quantizes every weight to a signed grid
	// of this many bits spanning ±WClipK·(WInit/√fanIn) after each
	// update — the precision-ablation knob (the chip is fixed at 8).
	QuantBits int
	// QuantPow2 snaps the QuantBits grid step up to the nearest power of
	// two and snaps the initial weights onto that grid. Every weight is
	// then an exact int mantissa times one power-of-two scale per layer
	// at all times — the chip's mantissa-and-exponent weight format.
	// Only meaningful with QuantBits > 0 and WClipK > 0.
	QuantPow2 bool
	// TargetHigh and TargetLow are the label-neuron rates for the true
	// class and the other classes.
	TargetHigh, TargetLow float64
	// Seed drives weight initialisation.
	Seed uint64
}

// DefaultConfig returns the training hyperparameters used by the
// experiments for a given topology. The phase length T=64 matches the
// paper. The paper quotes η = 2⁻³ in the chip's integer count/weight
// domain; this full-precision implementation normalises counts to rates
// (dividing by T twice in the update), for which 2⁻⁴ is the equivalent
// stable setting — see the chipnet package for the integer-domain rule.
func DefaultConfig(layerSizes ...int) Config {
	return Config{
		LayerSizes: layerSizes,
		T:          64,
		Eta:        1.0 / 16, // see note above; paper's 2^-3 is integer-domain
		Mode:       DFA,
		Theta:      1.0,
		ThetaErr:   1.0,
		WInit:      1.0,
		BInit:      1.0,
		Inject:     2.0,
		GateHidden: true,
		GateHi:     0, // default T/2
		WClipK:     4,
		TargetHigh: 0.875,
		TargetLow:  0.0,
		Seed:       1,
	}
}

// Network is a trainable EMSTDP network.
type Network struct {
	cfg Config

	enc      *spike.BiasEncoder
	labelEnc *spike.BiasEncoder
	layers   []*snn.IFLayer // trainable dense layers, input-side first

	errOut *snn.ErrChannel // loss-layer error neurons (eq 6)
	// errHidden holds one gated error-neuron bank per hidden layer (the
	// two-compartment AND neurons of §III-A), used by both feedback
	// modes: without the h′ gate, silent hidden neurons receive random
	// feedback drive they can only integrate upward (their rate is
	// floored at zero), and the network's activity diverges.
	errHidden []*snn.ErrChannel
	// errRelay (FA only) is the one-to-one feedback copy of the output
	// layer: the original EMSTDP's FA keeps a feedback neuron per
	// forward neuron, so the loss spikes pass through this relay before
	// chaining down — one more quantization stage than DFA, which is
	// exactly why the paper finds DFA slightly more accurate.
	errRelay *snn.ErrChannel
	// b holds feedback weights. For DFA, b[i] is hidden_i×out and feeds
	// output error spikes directly into hidden error bank i. For FA,
	// b[i] is hidden_i×src where src is the next error population up
	// (the output relay for the top hidden layer).
	b [][]float64

	// Per-phase spike counters: pre (encoder) and each layer.
	encCount       *spike.Counter
	h1, h2         []*spike.Counter
	outputDisabled []bool
	eta            float64
	quantRNG       *rng.Source // stochastic rounding bits for QuantBits
	// pendingLabel is the target programmed by the last ProgramSample
	// (-1 for an inference-only pass).
	pendingLabel int

	// Reusable per-sample scratch, so the TrainSample/Predict hot loop
	// allocates nothing after construction (enforced by AllocsPerRun
	// tests): input and label-neuron levels, the output-gate mask,
	// and per-hidden-bank direction gates (latched at the phase
	// boundary).
	levels      []int
	labelLevels []int
	gateOut     []bool
	gatePosBuf  [][]bool
	gateNegBuf  [][]bool
	// clip and qstep are apply's per-layer weight bound and
	// quantization grid step, hoisted out of the per-output update loop
	// (bit-identical: the loop used to recompute the same float64 values
	// per output neuron).
	clip  []float64
	qstep []float64
	// errIdx/errVal gather the nonzero entries of a phase-2 error spike
	// vector once per bank step, so the feedback-matrix walk touches only
	// the columns of firing error neurons instead of branching per entry.
	errIdx []int32
	errVal []float64
	// drive0 holds layer 0's drive per phase-1 step of a training pass,
	// row-major T×layers[0].Out; phase 2 replays row t at step t.
	drive0 []float64
}

// New builds an EMSTDP network. LayerSizes must name at least input and
// output.
func New(cfg Config) *Network {
	if len(cfg.LayerSizes) < 2 {
		panic("emstdp: need at least [input, output] layer sizes")
	}
	if cfg.T <= 0 {
		panic("emstdp: phase length T must be positive")
	}
	r := rng.New(cfg.Seed)
	n := &Network{cfg: cfg, eta: cfg.Eta, quantRNG: rng.New(cfg.Seed ^ 0xabcd1234), pendingLabel: -1}
	in := cfg.LayerSizes[0]
	out := cfg.LayerSizes[len(cfg.LayerSizes)-1]
	n.enc, n.labelEnc = newEncoders(cfg)

	for i := 1; i < len(cfg.LayerSizes); i++ {
		fanIn := cfg.LayerSizes[i-1]
		scale := cfg.WInit / sqrtF(fanIn)
		l := snn.NewIFLayer(r.Split(), fanIn, cfg.LayerSizes[i], scale, cfg.Theta)
		if step := layerStep(cfg, layerClip(cfg, fanIn)); step > 0 && cfg.QuantPow2 {
			// Snap the initial weights onto the power-of-two grid so the
			// layer holds mantissa×step weights from the first step.
			// Every later update lands back on the grid (apply
			// rounds to the same step).
			for k, w := range l.W {
				m := int64(w/step + 0.5)
				if w < 0 {
					m = int64(w/step - 0.5)
				}
				l.W[k] = float64(m) * step
			}
			l.MarkWeightsDirty()
		}
		n.layers = append(n.layers, l)
	}

	n.errOut = snn.NewErrChannel(out, cfg.ThetaErr)
	nHidden := len(n.layers) - 1
	n.b = make([][]float64, nHidden)
	n.errHidden = make([]*snn.ErrChannel, nHidden)
	if cfg.Mode == FA {
		n.errRelay = snn.NewErrChannel(out, cfg.ThetaErr)
	}
	for i := 0; i < nHidden; i++ {
		size := cfg.LayerSizes[i+1]
		n.errHidden[i] = snn.NewErrChannel(size, cfg.ThetaErr)
		var src int
		if cfg.Mode == DFA || i == nHidden-1 {
			src = out // DFA broadcast, or FA top bank reading the relay
		} else {
			src = cfg.LayerSizes[i+2] // FA: next hidden error bank up
		}
		n.b[i] = make([]float64, size*src)
		br := r.Split()
		br.FillUniform(n.b[i], -cfg.BInit/sqrtF(src), cfg.BInit/sqrtF(src))
	}

	n.encCount = spike.NewCounter(in)
	for _, l := range n.layers {
		n.h1 = append(n.h1, spike.NewCounter(l.Out))
		n.h2 = append(n.h2, spike.NewCounter(l.Out))
	}
	n.outputDisabled = make([]bool, out)
	n.initScratch()
	return n
}

// newEncoders builds the input encoder, whose table holds the T+1
// quantization levels of an input rate (level k fires exactly k times,
// as on the chip), and the label encoder, whose table holds the two
// target rates (entry 0 TargetLow, entry 1 TargetHigh) as biases of the
// rate times θ, as the paper writes them.
func newEncoders(cfg Config) (enc, label *spike.BiasEncoder) {
	in := cfg.LayerSizes[0]
	out := cfg.LayerSizes[len(cfg.LayerSizes)-1]
	targets := []float64{cfg.TargetLow * cfg.Theta, cfg.TargetHigh * cfg.Theta}
	return spike.NewLevelEncoder(in, cfg.T), spike.NewBiasEncoder(out, cfg.T, cfg.Theta, targets)
}

// initScratch builds the reusable hot-loop buffers (New and Clone).
func (n *Network) initScratch() {
	in := n.cfg.LayerSizes[0]
	out := n.cfg.LayerSizes[len(n.cfg.LayerSizes)-1]
	n.levels = make([]int, in)
	n.labelLevels = make([]int, out)
	n.gateOut = make([]bool, out)
	n.gatePosBuf = make([][]bool, len(n.errHidden))
	n.gateNegBuf = make([][]bool, len(n.errHidden))
	for i, e := range n.errHidden {
		n.gatePosBuf[i] = make([]bool, e.Len())
		n.gateNegBuf[i] = make([]bool, e.Len())
	}
	n.clip = make([]float64, len(n.layers))
	n.qstep = make([]float64, len(n.layers))
	for li, layer := range n.layers {
		n.clip[li] = layerClip(n.cfg, layer.In)
		n.qstep[li] = layerStep(n.cfg, n.clip[li])
	}
	maxSrc := 0
	for _, s := range n.cfg.LayerSizes[1:] {
		if s > maxSrc {
			maxSrc = s
		}
	}
	n.errIdx = make([]int32, maxSrc)
	n.errVal = make([]float64, maxSrc)
	n.drive0 = make([]float64, n.cfg.T*n.layers[0].Out)
}

// layerClip returns the weight bound for a layer of the given fan-in
// (zero when clipping is disabled).
func layerClip(cfg Config, fanIn int) float64 {
	if cfg.WClipK <= 0 {
		return 0
	}
	return cfg.WClipK * cfg.WInit / sqrtF(fanIn)
}

// layerStep returns the quantization grid step for a layer with the
// given clip (zero when quantization is disabled). With QuantPow2 the
// step is rounded UP to the nearest power of two and sized so the grid
// spans ±(2^(bits−1)−1) steps within the clip — every on-grid weight is
// then a QuantBits-bit mantissa times an exactly representable
// power-of-two scale.
func layerStep(cfg Config, clip float64) float64 {
	if cfg.QuantBits <= 0 || clip <= 0 {
		return 0
	}
	if cfg.QuantPow2 {
		return fixed.Pow2Ceil(clip / float64(int(1)<<(cfg.QuantBits-1)-1))
	}
	return clip / float64(int(1)<<(cfg.QuantBits-1))
}

func sqrtF(n int) float64 {
	x := float64(n)
	// Newton iterations are plenty for an init-time constant; avoids
	// importing math for one call site.
	if x <= 0 {
		return 1
	}
	g := x
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// NumFeedbackWeights returns the count of fixed feedback weights — the
// quantity DFA shrinks relative to FA (§III-A).
func (n *Network) NumFeedbackWeights() int {
	total := 0
	for _, m := range n.b {
		total += len(m)
	}
	return total
}

// NumFeedbackNeurons returns the count of dedicated feedback-path error
// neurons. FA's one-to-one output relay makes it strictly larger than
// DFA for the same topology (§III-A).
func (n *Network) NumFeedbackNeurons() int {
	total := 0
	if n.errRelay != nil {
		total += n.errRelay.Len()
	}
	for _, e := range n.errHidden {
		total += e.Len()
	}
	return total
}

// Layer exposes trainable layer i (for quantization and inspection).
func (n *Network) Layer(i int) *snn.IFLayer { return n.layers[i] }

// SetKernel forces every trainable layer's integration kernel — the
// equivalence-test and benchmark hook (production stays on the zero
// value, snn.KernelPacked).
func (n *Network) SetKernel(k snn.Kernel) {
	for _, l := range n.layers {
		l.Kernel = k
	}
}

// NumLayers returns the number of trainable layers.
func (n *Network) NumLayers() int { return len(n.layers) }

// SetLRReduced toggles the reduced learning rate (η/4) used by the
// incremental protocol's learn-new step.
func (n *Network) SetLRReduced(reduced bool) {
	if reduced {
		n.eta = n.cfg.Eta / 4
	} else {
		n.eta = n.cfg.Eta
	}
}

// Eta returns the current learning rate.
func (n *Network) Eta() float64 { return n.eta }

// SetOutputDisabled marks output neurons as disabled: they produce no
// error spikes and their incoming weights are frozen. The incremental
// learning protocol (§IV-B) disables old-class classifier neurons during
// the learn-new step to approximate the cross-distillation loss.
func (n *Network) SetOutputDisabled(disabled []bool) {
	if len(disabled) != len(n.outputDisabled) {
		panic("emstdp: disabled mask length mismatch")
	}
	copy(n.outputDisabled, disabled)
}

// EnableAllOutputs clears the disabled mask.
func (n *Network) EnableAllOutputs() {
	for i := range n.outputDisabled {
		n.outputDisabled[i] = false
	}
}

// reset clears all dynamic state ahead of a new sample.
func (n *Network) reset() {
	n.enc.Reset()
	n.labelEnc.Reset()
	for _, l := range n.layers {
		l.Reset()
	}
	n.errOut.Reset()
	if n.errRelay != nil {
		n.errRelay.Reset()
	}
	for _, e := range n.errHidden {
		e.Reset()
	}
	n.encCount.Reset()
	for i := range n.h1 {
		n.h1[i].Reset()
		n.h2[i].Reset()
	}
}

// forwardStep advances encoder and all layers one timestep, recording
// layer counts into layerCounters; the packed kernel reads each
// producer's bitset, the counters its active-index list. A non-nil
// encCounter takes the encoder's phase counts — the programmed trains'
// popcounts, fixed before any step runs — so one step per phase need
// pass it.
func (n *Network) forwardStep(encCounter *spike.Counter, layerCounters []*spike.Counter) {
	if encCounter != nil {
		copy(encCounter.Counts, n.enc.Counts())
	}
	n.stepLayers(0, n.enc.Step(), layerCounters)
}

// stepLayers advances layers from..end one timestep on the spikes of the
// layer below (or the encoder, when from is 0).
func (n *Network) stepLayers(from int, bits *spike.Bitset, layerCounters []*spike.Counter) {
	for i := from; i < len(n.layers); i++ {
		l := n.layers[i]
		l.Step(bits)
		bits = l.Bits()
		if layerCounters != nil {
			layerCounters[i].ObserveActive(l.Active())
		}
	}
}

// replayStep is phase 2's forward step t: layer 0 finishes from the drive
// phase 1 recorded at step t, and the layers above step from its spikes.
func (n *Network) replayStep(t int) {
	l0 := n.layers[0]
	l0.StepDrive(n.drive0[t*l0.Out : (t+1)*l0.Out])
	n.h2[0].ObserveActive(l0.Active())
	n.stepLayers(1, l0.Bits(), n.h2)
}

// setInput programs the input neurons from rates in [0,1]: each takes
// the quantization level of its rate.
func (n *Network) setInput(x []float64) {
	if len(x) != n.enc.Len() {
		panic(fmt.Sprintf("emstdp: input size %d, want %d", len(x), n.enc.Len()))
	}
	for i, v := range x {
		n.levels[i] = spike.PhaseLevel(v, n.cfg.T)
	}
	n.enc.SetLevels(n.levels)
}

// phase1 runs the inference phase into the h1 counters. State is NOT
// reset first so callers can inspect; use Predict for plain
// classification. A training pass (record) also takes the encoder
// counts and records layer 0's drive per step for phase 2 to replay.
func (n *Network) phase1(record bool) {
	var encCounter *spike.Counter
	if record {
		encCounter = n.encCount
	}
	out0 := n.layers[0].Out
	for t := 0; t < n.cfg.T; t++ {
		n.forwardStep(encCounter, n.h1)
		encCounter = nil // taken on the first step
		if record {
			copy(n.drive0[t*out0:(t+1)*out0], n.layers[0].Drive())
		}
	}
}

// Predict classifies x (rates in [0,1]) with a phase-1 pass, breaking
// count ties by residual membrane potential. Reads the phase counters in
// place (no per-call allocation, unlike ReadCounts).
func (n *Network) Predict(x []float64) int {
	n.ProgramSample(x, -1)
	n.RunPhases(false)
	counts := n.h1[len(n.h1)-1].Counts
	outLayer := n.layers[len(n.layers)-1]
	best, bi := -1.0, 0
	for i, c := range counts {
		score := float64(c) + outLayer.Potential(i)/n.cfg.Theta
		if score > best {
			best, bi = score, i
		}
	}
	return bi
}

// HiddenCounts returns the phase-1 spike counts of trainable layer li
// from the most recent pass — exposed for tests and diagnostics.
func (n *Network) HiddenCounts(li int) []int { return n.h1[li].Counts }

// TrainSample runs the full two-phase EMSTDP update on one labelled
// sample. x holds input rates in [0,1]; label is the class index.
func (n *Network) TrainSample(x []float64, label int) {
	n.ProgramSample(x, label)
	n.RunPhases(true)
	n.ApplyUpdate(nil)
}

// ProgramSample resets dynamic state and loads one sample: input biases
// from rates in [0,1] and, when label >= 0, the label-neuron target
// biases (the paper inserts the label as bias on the label neurons,
// which then fire at the target rate). label < 0 programs an
// inference-only pass. First step of the engine.Runner protocol.
func (n *Network) ProgramSample(x []float64, label int) {
	out := n.layers[len(n.layers)-1].Out
	if label >= out {
		panic(fmt.Sprintf("emstdp: label %d out of range [0,%d)", label, out))
	}
	n.reset()
	n.setInput(x)
	n.pendingLabel = label
	if label < 0 {
		return
	}
	for j := range n.labelLevels {
		n.labelLevels[j] = 0 // TargetLow
	}
	n.labelLevels[label] = 1 // TargetHigh
	n.labelEnc.SetLevels(n.labelLevels)
}

// RunPhases executes phase 1 and, when train is true, the phase boundary
// plus the error-driven phase 2 of the programmed sample. A training
// pass takes the encoder counts eq (7) uses and records layer 0's drive
// in phase 1; phase 2 replays the drive rather than re-stepping the
// encoder and layer 0's gather, and reads h′ gates latched at the
// boundary (exact: see the package doc).
func (n *Network) RunPhases(train bool) {
	if train && n.pendingLabel < 0 {
		panic("emstdp: RunPhases(train) without a labelled ProgramSample")
	}
	// Phase 1: settle at h.
	n.phase1(train)
	if !train {
		return
	}

	// Phase boundary: reset forward membranes so both phases measure the
	// network from the same initial state. Without this, the layer
	// membranes enter phase 2 mid-integration and almost every active
	// neuron spikes once more in phase 2 than in phase 1 — a per-sample
	// bias of +1 count that compounds over thousands of samples into
	// runaway potentiation of the whole layer stack. (The encoder needs
	// no reset: phase 2 replays its phase-1 spikes.)
	for _, l := range n.layers {
		l.Reset()
	}
	n.latchGates(n.h1)

	// Phase 2: errors correct the forward rates toward ĥ.
	for t := 0; t < n.cfg.T; t++ {
		n.replayStep(t)
		n.correctStep()
	}
}

// correctStep runs one phase-2 timestep of the error loop on the forward
// spikes just produced: the label neurons fire, the loss layer (eq 6)
// emits error spikes, and the corrections are injected into the output
// layer and, through FA or DFA feedback, the hidden layers.
func (n *Network) correctStep() {
	outLayer := n.layers[len(n.layers)-1]
	labelSpikes := n.labelEnc.Step()

	// Loss layer (eq 6): ε accumulates wL·(ŝ − s) with wL = 1.
	outSpikes := outLayer.Bits()
	for j, disabled := range n.outputDisabled {
		if disabled {
			continue
		}
		drive := 0.0
		if labelSpikes.Get(j) {
			drive += 1
		}
		if outSpikes.Get(j) {
			drive -= 1
		}
		n.errOut.Accumulate(j, drive)
	}
	eOut := n.errOut.Step(n.outputGate())

	// Correct the output layer toward the target rate.
	for j, e := range eOut {
		if e != 0 {
			outLayer.Inject(j, float64(e)*n.cfg.Inject*n.cfg.Theta)
		}
	}

	// Hidden corrections via FA chain or DFA broadcast.
	n.propagateHiddenErrors(eOut)
}

// outputGate suppresses error spikes of disabled output neurons
// (refills the reusable mask; no allocation).
func (n *Network) outputGate() []bool {
	gate := n.gateOut
	for i, d := range n.outputDisabled {
		gate[i] = !d
	}
	return gate
}

// propagateHiddenErrors delivers one timestep of error spikes to every
// hidden layer and injects the corrections.
func (n *Network) propagateHiddenErrors(eOut []int8) {
	nHidden := len(n.layers) - 1
	if nHidden == 0 {
		return
	}
	switch n.cfg.Mode {
	case DFA:
		// Direct broadcast: every hidden error bank reads the loss-layer
		// spikes through its own random matrix.
		for i := 0; i < nHidden; i++ {
			n.driveAndInject(i, eOut)
		}
	case FA:
		// The loss spikes first pass through the one-to-one output
		// relay, then chain down the hidden error banks.
		for j, e := range eOut {
			if e != 0 {
				n.errRelay.Accumulate(j, float64(e)*n.cfg.ThetaErr)
			}
		}
		src := n.errRelay.Step(nil)
		for i := nHidden - 1; i >= 0; i-- {
			src = n.driveAndInject(i, src)
		}
	}
}

// driveAndInject accumulates src error spikes into hidden error bank i
// through its feedback matrix, thresholds the bank, injects corrections
// into forward layer i, and returns the bank's spikes for FA chaining.
func (n *Network) driveAndInject(i int, src []int8) []int8 {
	bank := n.errHidden[i]
	mat := n.b[i]
	size := bank.Len()
	srcN := len(src)
	// Gather the firing error neurons once, then walk only their columns
	// per bank neuron. The inner loop visits the same (value, column)
	// pairs in the same ascending order as a dense scan, so the drive sum
	// is bit-identical; most phase-2 steps have a handful of error spikes
	// (often none), making the matrix walk O(size·spikes).
	cnt := 0
	for j, e := range src {
		if e != 0 {
			n.errIdx[cnt] = int32(j)
			n.errVal[cnt] = float64(e)
			cnt++
		}
	}
	if cnt > 0 {
		idx, val := n.errIdx[:cnt], n.errVal[:cnt]
		for k := 0; k < size; k++ {
			drive := 0.0
			row := mat[k*srcN : (k+1)*srcN]
			for p, j := range idx {
				drive += val[p] * row[j]
			}
			if drive != 0 {
				bank.Accumulate(k, drive)
			}
		}
	}
	var gatePos, gateNeg []bool
	if n.cfg.GateHidden {
		gatePos, gateNeg = n.gatePosBuf[i], n.gateNegBuf[i]
	}
	spikes := bank.StepDir(gatePos, gateNeg)
	layer := n.layers[i]
	gain := n.injectHidden()
	for k, e := range spikes {
		if e != 0 {
			layer.Inject(k, float64(e)*gain*n.cfg.Theta)
		}
	}
	return spikes
}

// latchGates fills every hidden error bank's direction gates from the
// given phase counts — phase 1's, final at the phase boundary: h′ of the
// shifted-ReLU activation (eq 2) passes upward corrections only below
// the saturation bound and downward corrections for any active neuron.
// Without GateHidden the masks go unused.
func (n *Network) latchGates(h []*spike.Counter) {
	if !n.cfg.GateHidden {
		return
	}
	hi := n.gateHi()
	for i := range n.errHidden {
		gatePos, gateNeg := n.gatePosBuf[i], n.gateNegBuf[i]
		for k, c := range h[i].Counts {
			gatePos[k] = c > 0 && c < hi
			gateNeg[k] = c > 0
		}
	}
}

// injectHidden returns the effective hidden correction gain.
func (n *Network) injectHidden() float64 {
	if n.cfg.InjectHidden > 0 {
		return n.cfg.InjectHidden
	}
	return 0.5
}

// gateHi returns the effective shifted-ReLU saturation bound.
func (n *Network) gateHi() int {
	if n.cfg.GateHi > 0 {
		return n.cfg.GateHi
	}
	return n.cfg.T / 2
}

// apply performs eq (7): Δw = η·(ĥ−h)/T · h_pre/T for every trainable
// layer, from the phase counters the last RunPhases(true) left behind
// (encoder phase-2 counts, then per-layer phase-1 and phase-2 counts),
// drawing stochastic-rounding bits from quantRNG.
func (n *Network) apply() {
	T := float64(n.cfg.T)
	for li, layer := range n.layers {
		pre := n.encCount.Counts
		if li > 0 {
			pre = n.h2[li-1].Counts
		}
		post1 := n.h1[li].Counts
		post2 := n.h2[li].Counts
		isOutput := li == len(n.layers)-1
		clip := n.clip[li]
		step := n.qstep[li]
		for o := 0; o < layer.Out; o++ {
			if isOutput && n.outputDisabled[o] {
				continue
			}
			delta := float64(post2[o]-post1[o]) / T
			if delta == 0 {
				continue
			}
			row := layer.W[o*layer.In : (o+1)*layer.In]
			scale := n.eta * delta / T
			for k, p := range pre {
				if p == 0 {
					continue
				}
				w := row[k] + scale*float64(p)
				if clip > 0 {
					if w > clip {
						w = clip
					} else if w < -clip {
						w = -clip
					}
				}
				if step > 0 {
					// Stochastic rounding to the k-bit grid, matching the
					// chip's learning-engine rounding mode: deterministic
					// rounding would zero out every sub-step update.
					q := w / step
					lo := float64(int64(q))
					if q < 0 {
						lo = -float64(int64(-q)) - 1
					}
					if n.quantRNG.Float64() < q-lo {
						lo++
					}
					w = lo * step
				}
				// SetWeight keeps the layer's transposed view current,
				// so no rebuild waits for the next sample.
				layer.SetWeight(o, k, w)
			}
		}
	}
}
