// Package chipnet builds the EMSTDP forward and error networks as a
// netlist on the Loihi-class chip simulator and orchestrates the paper's
// two-phase on-chip training (Fig 1b/1c, Operation Flow 1).
//
// The netlist comprises:
//
//   - a bias-driven input population (§III-D): inputs are programmed as
//     neuron biases, one host transaction per sample, and the input
//     neurons integrate to spike at rates proportional to the pixel;
//   - optionally a fixed spiking convolutional front end converted from
//     the offline-pretrained ANN stack by weight–threshold balancing;
//   - the plastic dense forward layers (IF neurons, 8-bit synapses under
//     the chip's eq-12 learning engine);
//   - label neurons (bias-programmed targets);
//   - positive/negative error-channel populations for the spike-based
//     loss (eq 6) and gated (multi-compartment h′ AND, §III-A) error
//     populations at every hidden layer; FA additionally passes the loss
//     spikes through a one-to-one output relay pair and chains banks
//     downward, while DFA broadcasts the loss spikes directly to every
//     hidden bank through its random matrix;
//   - a phase-control neuron, bias-driven by the host at the phase
//     boundary, that AND-gates the whole error path so phase 1 runs
//     undisturbed.
package chipnet

import (
	"fmt"
	"math"
	"slices"

	"emstdp/internal/ann"
	"emstdp/internal/emstdp"
	"emstdp/internal/fixed"
	"emstdp/internal/loihi"
	"emstdp/internal/mapping"
	"emstdp/internal/rng"
	"emstdp/internal/trace"
)

// Config parameterises the on-chip EMSTDP network. Scale-free parameters
// (WInit, BInit, Inject, targets) have the same meaning as in the
// full-precision emstdp.Config, in units of the firing threshold.
type Config struct {
	// LayerSizes lists the dense trainable stack [featureIn, hidden..., out].
	LayerSizes []int
	// T is the phase length; must be a power of two (the integer
	// learning-rate shift folds T² into a right-shift) no larger than
	// Theta (input and label biases are multiples of Theta/T).
	T int
	// Mode selects FA or DFA feedback.
	Mode emstdp.FeedbackMode
	// Theta is the forward firing threshold in membrane units; a power
	// of two.
	Theta int32
	// ThetaErr is the error-channel threshold.
	ThetaErr int32
	// EtaLog2 sets the learning rate η = 2^-EtaLog2 (in the same
	// rate-normalised convention as the reference; the on-chip shift adds
	// log2(T²/θ) and the group's weight exponent).
	EtaLog2 uint
	// Inject is the error-correction gain in θ units per error spike.
	Inject float64
	// WInit and BInit scale forward / feedback weight init exactly as in
	// the reference implementation.
	WInit, BInit float64
	// TargetHigh and TargetLow are label rates.
	TargetHigh, TargetLow float64
	// GateHidden enables the multi-compartment h′ AND gate on FA hidden
	// error neurons.
	GateHidden bool
	// Seed drives initialisation.
	Seed uint64
	// SpikeInput builds the input population as a host-driven spike
	// source instead of bias-driven integrators: samples arrive as event
	// trains (one spike mask per timestep) through mesh spike insertion,
	// the input path of event sensors like DVS — and the costly
	// alternative that §III-D's bias coding replaces for frame data.
	// Use TrainSampleEvents / PredictEvents with this mode.
	SpikeInput bool
	// InferenceOnly deploys the forward path only: no label, phase,
	// error populations or learning engine. This is how the paper
	// deploys for testing ("during the inference mode, backward paths
	// are not implemented"), and is what gives inference its lower core
	// count and power in Table II. TrainSample panics on such a network.
	InferenceOnly bool
	// NeuronsPerCore is the dense-part packing knob swept in Fig 3.
	NeuronsPerCore int
	// ConvPerCore packs the (much larger, fixed) conv populations.
	ConvPerCore int
	// Chips is the number of simulated dies on the loihi.Mesh the
	// netlist runs on. 0 or 1 is one die, the paper's deployment; >1
	// shards the netlist across the dies under the Partition strategy —
	// bit-identical to the one-die deployment at the same seed, with
	// cross-die spikes accounted as mesh traffic.
	Chips int
	// Partition selects the sharding strategy. On one die every
	// strategy places the populations in build order.
	Partition mapping.Strategy
	// Topology arranges the dies on the board's NoC: line (the zero
	// value), 2-D mesh or torus, with optional explicit radix and link
	// bandwidth. Topology changes traffic, link occupancy and modeled
	// latency only — never simulation results.
	Topology loihi.Topology
	// HW gives the per-die chip limits.
	HW loihi.HardwareConfig
	// Trace, when set, records the mesh's per-step sub-phase spans and
	// per-link load counters onto the shared tracer, on any die count.
	// Observation only — simulation results never depend on whether a
	// tracer is attached.
	Trace *trace.Tracer
}

// DefaultConfig mirrors the paper's settings: T=64, 8-bit weights,
// 10 neurons per core for the trainable part (chosen from Fig 3).
func DefaultConfig(layerSizes ...int) Config {
	return Config{
		LayerSizes:     layerSizes,
		T:              64,
		Mode:           emstdp.DFA,
		Theta:          256,
		ThetaErr:       256,
		EtaLog2:        4,
		Inject:         2.0,
		WInit:          1.0,
		BInit:          1.0,
		TargetHigh:     0.875,
		TargetLow:      0.0,
		GateHidden:     true,
		Seed:           1,
		NeuronsPerCore: 10,
		ConvPerCore:    512,
		HW:             loihi.DefaultHardware(),
	}
}

// Network is an EMSTDP network deployed on a simulated board of
// max(1, cfg.Chips) dies.
type Network struct {
	cfg  Config
	mesh *loihi.Mesh
	part *mapping.Partition

	conv *convFront // nil when the network consumes features directly

	input   *loihi.Population // feature-level input (nil when conv present)
	fwd     []*loihi.Population
	plastic []*loihi.SynapseGroup

	baseShifts []uint // per-group learning shifts (SetLRReduced restores these)

	label     *loihi.Population
	phase     *loihi.Population
	errOutPos *loihi.Population
	errOutNeg *loihi.Population
	errHidPos []*loihi.Population // per hidden layer, both modes
	errHidNeg []*loihi.Population

	perCoreOf map[*loihi.Population]int
	phaseOn   []int32
	phaseOff  []int32
	zeroLabel []int32
	// inputBias/labelBias are reusable per-sample host-write staging
	// buffers, so ProgramSample/RunPhases allocate nothing after
	// construction (enforced by AllocsPerRun tests).
	inputBias []int32
	labelBias []int32

	// convStack and the input geometry are retained from NewWithConv so
	// replicas can rebuild the same netlist (the stack itself is frozen
	// and shared read-only).
	convStack           *ann.ConvStack
	convC, convH, convW int

	// pendingLabel is the target programmed by the last ProgramSample
	// (-1 for an inference-only pass).
	pendingLabel int
}

// New builds a feature-input network (the dense trainable part only).
func New(cfg Config) (*Network, error) {
	n, err := newCommon(cfg)
	if err != nil {
		return nil, err
	}
	in := loihi.NewPopulation("input", loihi.PopulationConfig{
		N: cfg.LayerSizes[0], Theta: cfg.Theta, VMin: -cfg.Theta,
		Source: cfg.SpikeInput,
	})
	if err := n.place(in, cfg.NeuronsPerCore); err != nil {
		return nil, err
	}
	n.input = in
	if err := n.buildDense(in); err != nil {
		return nil, err
	}
	n.initScratch()
	return n, nil
}

// NewWithConv builds the full paper network: spiking conv front end
// (fixed, converted from the calibrated pretrained stack) feeding the
// plastic dense stack. cfg.LayerSizes[0] must equal cs.OutSize().
func NewWithConv(cfg Config, cs *ann.ConvStack, inC, inH, inW int) (*Network, error) {
	if cfg.LayerSizes[0] != cs.OutSize() {
		return nil, fmt.Errorf("chipnet: LayerSizes[0]=%d but conv stack emits %d features",
			cfg.LayerSizes[0], cs.OutSize())
	}
	n, err := newCommon(cfg)
	if err != nil {
		return nil, err
	}
	n.convStack, n.convC, n.convH, n.convW = cs, inC, inH, inW
	if err := n.buildConv(cs, inC, inH, inW); err != nil {
		return nil, err
	}
	if err := n.buildDense(n.conv.c2); err != nil {
		return nil, err
	}
	n.initScratch()
	return n, nil
}

// initScratch sizes the reusable host-write buffers once the netlist's
// populations exist.
func (n *Network) initScratch() {
	n.inputBias = make([]int32, n.inputPop().N)
	if n.label != nil {
		n.labelBias = make([]int32, n.label.N)
	}
}

func newCommon(cfg Config) (*Network, error) {
	if len(cfg.LayerSizes) < 2 {
		return nil, fmt.Errorf("chipnet: need at least [input, output] layer sizes")
	}
	if cfg.T <= 0 || cfg.T&(cfg.T-1) != 0 {
		return nil, fmt.Errorf("chipnet: phase length T=%d must be a positive power of two", cfg.T)
	}
	if cfg.Theta <= 0 || cfg.Theta&(cfg.Theta-1) != 0 {
		return nil, fmt.Errorf("chipnet: Theta=%d must be a positive power of two", cfg.Theta)
	}
	if cfg.T > int(cfg.Theta) {
		// Input and label biases are whole multiples of the unit Theta/T,
		// which integer division makes 0 here: nothing would ever fire.
		return nil, fmt.Errorf("chipnet: phase length T=%d exceeds Theta=%d", cfg.T, cfg.Theta)
	}
	if cfg.Chips < 0 {
		return nil, fmt.Errorf("chipnet: Chips=%d must be non-negative", cfg.Chips)
	}
	dies := max(1, cfg.Chips)
	part, err := mapping.NewPartition(cfg.HW, dies, cfg.Partition)
	if err != nil {
		return nil, err
	}
	mesh, err := loihi.NewMeshTopology(cfg.HW, dies, cfg.Topology)
	if err != nil {
		return nil, err
	}
	mesh.SetTracer(cfg.Trace)
	n := &Network{cfg: cfg, mesh: mesh, part: part, perCoreOf: map[*loihi.Population]int{}, pendingLabel: -1}
	n.phaseOn = []int32{16}
	n.phaseOff = []int32{0}
	n.zeroLabel = make([]int32, cfg.LayerSizes[len(cfg.LayerSizes)-1])
	return n, nil
}

// place maps a population onto the next free cores of the dies the
// partitioner chose. peers declares the already-placed populations this
// one is heavily connected to, which only the traffic-aware partition
// strategy reads.
func (n *Network) place(p *loihi.Population, perCore int, peers ...string) error {
	// The partitioner would clamp an over-limit packing silently; a
	// packing the hardware cannot hold is a configuration error.
	if perCore <= 0 {
		return fmt.Errorf("loihi: perCore must be positive, got %d", perCore)
	}
	if perCore > n.cfg.HW.MaxCompartmentsPerCore {
		return fmt.Errorf("loihi: perCore %d exceeds compartments/core limit %d",
			perCore, n.cfg.HW.MaxCompartmentsPerCore)
	}
	pl, err := n.part.AssignConnected(p.Name, p.N, perCore, 0, peers)
	if err != nil {
		return err
	}
	for _, s := range pl.Shards {
		if err := n.mesh.AddPopulation(p, s.Die, s.Lo, s.Hi, s.FirstCore, s.PerCore); err != nil {
			return err
		}
	}
	n.perCoreOf[p] = pl.PerCore
	return nil
}

// intWeight decomposes an integer-valued membrane weight into an int8
// mantissa and exponent.
func intWeight(v float64) (int8, uint) {
	exp := uint(0)
	av := math.Abs(v)
	for av/float64(int64(1)<<exp) > float64(fixed.WeightMax) {
		exp++
	}
	m := v / float64(int64(1)<<exp)
	if m >= 0 {
		return int8(m + 0.5), exp
	}
	return int8(m - 0.5), exp
}

// buildDense constructs the plastic stack, loss layer, feedback path and
// phase control, reading features from pre.
func (n *Network) buildDense(pre *loihi.Population) error {
	cfg := n.cfg
	r := rng.New(cfg.Seed)
	sizes := cfg.LayerSizes
	out := sizes[len(sizes)-1]
	theta := float64(cfg.Theta)
	logT := uint(math.Round(math.Log2(float64(cfg.T))))
	logTheta := uint(math.Round(math.Log2(theta)))

	// Forward plastic layers.
	prev := pre
	for i := 1; i < len(sizes); i++ {
		fanIn := sizes[i-1]
		p := loihi.NewPopulation(fmt.Sprintf("fwd%d", i), loihi.PopulationConfig{
			N: sizes[i], Theta: cfg.Theta, VMin: -cfg.Theta,
		})
		if err := n.place(p, cfg.NeuronsPerCore, prev.Name); err != nil {
			return err
		}
		g := loihi.NewSynapseGroup(fmt.Sprintf("W%d", i), prev, p, 0)
		w := make([]float64, fanIn*sizes[i])
		lr := r.Split()
		lr.FillUniform(w, -cfg.WInit/math.Sqrt(float64(fanIn)), cfg.WInit/math.Sqrt(float64(fanIn)))
		g.SetWeightsFloat(w, theta, 4) // 4x headroom for learned growth
		if !cfg.InferenceOnly {
			// Integer learning-rate shift: Δmant = Δh·x / 2^(2logT − logθ + η + exp).
			shift := 2*logT - logTheta + cfg.EtaLog2 + g.Exp
			g.EnableLearning(shift, cfg.Seed+uint64(i)*0x9e3779b9)
			n.baseShifts = append(n.baseShifts, shift)
		}
		if err := n.mesh.Connect(g); err != nil {
			return err
		}
		n.fwd = append(n.fwd, p)
		n.plastic = append(n.plastic, g)
		prev = p
	}
	fwdOut := n.fwd[len(n.fwd)-1]
	if cfg.InferenceOnly {
		// Forward path only: no label, phase, loss, feedback or learning
		// structures are deployed at all.
		return nil
	}

	// Label neurons and phase control. The label only feeds the (not
	// yet placed) loss layer, which itself sits next to the forward
	// output — so the forward output is the label's declared affinity.
	n.label = loihi.NewPopulation("label", loihi.PopulationConfig{
		N: out, Theta: cfg.Theta, VMin: 0,
	})
	if err := n.place(n.label, cfg.NeuronsPerCore, fwdOut.Name); err != nil {
		return err
	}
	n.phase = loihi.NewPopulation("phase", loihi.PopulationConfig{
		N: 1, Theta: 16, VMin: 0,
	})
	if err := n.place(n.phase, cfg.NeuronsPerCore); err != nil {
		return err
	}

	// Loss-layer error channels (eq 6): ε accumulates wL·(ŝ−s) with
	// wL = θerr, so one spike of target/prediction difference is one
	// error quantum. Both channels are phase-gated.
	errCfg := loihi.PopulationConfig{N: out, Theta: cfg.ThetaErr, VMin: -cfg.ThetaErr}
	n.errOutPos = loihi.NewPopulation("errOut+", errCfg)
	n.errOutNeg = loihi.NewPopulation("errOut-", errCfg)
	for _, p := range []*loihi.Population{n.errOutPos, n.errOutNeg} {
		if err := n.place(p, cfg.NeuronsPerCore, n.label.Name, fwdOut.Name); err != nil {
			return err
		}
		p.SetPhaseGate(n.phase)
	}
	wL, wLExp := intWeight(float64(cfg.ThetaErr))
	taps := []struct {
		name      string
		pre, post *loihi.Population
		w         int8
	}{
		{"loss:label->e+", n.label, n.errOutPos, wL},
		{"loss:out->e+", fwdOut, n.errOutPos, -wL},
		{"loss:label->e-", n.label, n.errOutNeg, -wL},
		{"loss:out->e-", fwdOut, n.errOutNeg, wL},
	}
	for _, tp := range taps {
		if err := n.mesh.Connect(loihi.NewDiagonalGroup(tp.name, tp.pre, tp.post, tp.w, wLExp)); err != nil {
			return err
		}
	}

	// Output correction: error spikes drive the output forward neurons
	// toward the target rate.
	injW, injExp := intWeight(cfg.Inject * theta)
	if err := n.mesh.Connect(loihi.NewDiagonalGroup("inj:e+->out", n.errOutPos, fwdOut, injW, injExp)); err != nil {
		return err
	}
	if err := n.mesh.Connect(loihi.NewDiagonalGroup("inj:e-->out", n.errOutNeg, fwdOut, -injW, injExp)); err != nil {
		return err
	}

	// Feedback path to hidden layers. Both modes use gated error-channel
	// pairs at every hidden layer (the two-compartment AND neurons of
	// §III-A). FA additionally passes the loss spikes through a
	// one-to-one output relay pair and chains banks downward; DFA
	// broadcasts the loss spikes directly to every hidden bank. Built
	// top-down so FA chains can reference the bank one level up; the
	// feedback matrices are drawn in bottom-up order to match the
	// reference implementation's RNG stream.
	nHidden := len(n.fwd) - 1
	n.errHidPos = make([]*loihi.Population, nHidden)
	n.errHidNeg = make([]*loihi.Population, nHidden)
	bMats := make([][]float64, nHidden)
	for i := 0; i < nHidden; i++ {
		var srcN int
		if cfg.Mode == emstdp.DFA || i == nHidden-1 {
			srcN = out
		} else {
			srcN = sizes[i+2]
		}
		bMats[i] = make([]float64, sizes[i+1]*srcN)
		br := r.Split()
		br.FillUniform(bMats[i], -cfg.BInit/math.Sqrt(float64(srcN)), cfg.BInit/math.Sqrt(float64(srcN)))
	}

	// FA relay: the feedback copy of the output layer.
	var relayPos, relayNeg *loihi.Population
	if cfg.Mode == emstdp.FA && nHidden > 0 {
		relayCfg := loihi.PopulationConfig{N: out, Theta: cfg.ThetaErr, VMin: -cfg.ThetaErr}
		relayPos = loihi.NewPopulation("relay+", relayCfg)
		relayNeg = loihi.NewPopulation("relay-", relayCfg)
		for _, p := range []*loihi.Population{relayPos, relayNeg} {
			if err := n.place(p, cfg.NeuronsPerCore, n.errOutPos.Name, n.errOutNeg.Name); err != nil {
				return err
			}
			p.SetPhaseGate(n.phase)
		}
		// One-to-one taps: e⁺ → relay⁺, e⁻ → relay⁻ (positive error
		// stays positive through the relay; the channels don't cross at
		// an identity stage).
		if err := n.mesh.Connect(loihi.NewDiagonalGroup("relay:e+", n.errOutPos, relayPos, wL, wLExp)); err != nil {
			return err
		}
		if err := n.mesh.Connect(loihi.NewDiagonalGroup("relay:e-", n.errOutNeg, relayNeg, wL, wLExp)); err != nil {
			return err
		}
	}

	for i := nHidden - 1; i >= 0; i-- {
		size := sizes[i+1]
		var srcPos, srcNeg *loihi.Population
		if cfg.Mode == emstdp.DFA {
			srcPos, srcNeg = n.errOutPos, n.errOutNeg
		} else if i == nHidden-1 {
			srcPos, srcNeg = relayPos, relayNeg
		} else {
			srcPos, srcNeg = n.errHidPos[i+1], n.errHidNeg[i+1]
		}
		b := bMats[i]

		// Per-hidden-layer error channel pair, one-to-one with the
		// forward neurons, h′-gated by the forward partner's phase-1
		// activity (multi-compartment AND) and phase-gated.
		mk := func(name string) (*loihi.Population, error) {
			p := loihi.NewPopulation(name, loihi.PopulationConfig{
				N: size, Theta: cfg.ThetaErr, VMin: -cfg.ThetaErr,
				Gated: cfg.GateHidden, GateLo: 1, GateHi: cfg.T - 1,
			})
			if err := n.place(p, cfg.NeuronsPerCore,
				n.fwd[i].Name, srcPos.Name, srcNeg.Name); err != nil {
				return nil, err
			}
			if cfg.GateHidden {
				p.AuxSource(n.fwd[i])
			}
			p.SetPhaseGate(n.phase)
			return p, nil
		}
		var err error
		if n.errHidPos[i], err = mk(fmt.Sprintf("errHid+%d", i)); err != nil {
			return err
		}
		if n.errHidNeg[i], err = mk(fmt.Sprintf("errHid-%d", i)); err != nil {
			return err
		}

		// Cross-connected feedback per eq (10): ε⁺ = e⁺·B + e⁻·(−B),
		// ε⁻ = e⁺·(−B) + e⁻·B, in error-threshold units.
		conn := func(name string, src, dst *loihi.Population, sign float64) error {
			g := loihi.NewSynapseGroup(name, src, dst, 0)
			eff := make([]float64, len(b))
			for j, v := range b {
				eff[j] = sign * v
			}
			g.SetWeightsFloat(eff, float64(cfg.ThetaErr), 1)
			return n.mesh.Connect(g)
		}
		if err := conn(fmt.Sprintf("fa:e+->h+%d", i), srcPos, n.errHidPos[i], +1); err != nil {
			return err
		}
		if err := conn(fmt.Sprintf("fa:e-->h+%d", i), srcNeg, n.errHidPos[i], -1); err != nil {
			return err
		}
		if err := conn(fmt.Sprintf("fa:e+->h-%d", i), srcPos, n.errHidNeg[i], -1); err != nil {
			return err
		}
		if err := conn(fmt.Sprintf("fa:e-->h-%d", i), srcNeg, n.errHidNeg[i], +1); err != nil {
			return err
		}

		// Hidden correction injections.
		if err := n.mesh.Connect(loihi.NewDiagonalGroup(
			fmt.Sprintf("inj:h+->f%d", i), n.errHidPos[i], n.fwd[i], injW, injExp)); err != nil {
			return err
		}
		if err := n.mesh.Connect(loihi.NewDiagonalGroup(
			fmt.Sprintf("inj:h-->f%d", i), n.errHidNeg[i], n.fwd[i], -injW, injExp)); err != nil {
			return err
		}
	}

	// RunPhases replays W1's phase-1 drive in phase 2 by overwriting
	// fwd0's accumulator, which equals live delivery only while W1 adds
	// into a zero accumulator: it must be the first connector into fwd0
	// on every die.
	if n.mesh.FirstInto(n.fwd[0]) != loihi.Connector(n.plastic[0]) {
		return fmt.Errorf("chipnet: %s must be the first connector into %s on every die (phase-2 drive replay)",
			n.plastic[0].Name, n.fwd[0].Name)
	}
	n.plastic[0].EnableDriveTape(cfg.T)
	return nil
}

// Mesh exposes the board the network runs on: per-die counters and
// occupancy (Die), traffic, and the OnStep probe.
func (n *Network) Mesh() *loihi.Mesh { return n.mesh }

// PartitionPlan returns the placement the partitioner produced.
func (n *Network) PartitionPlan() *mapping.Partition { return n.part }

// Counters returns the board's aggregated activity counters: the
// deterministic die-order reduction, equal on any die count for the
// same netlist.
func (n *Network) Counters() loihi.Counters { return n.mesh.Counters() }

// ResetCounters zeroes the board's activity and traffic counters.
func (n *Network) ResetCounters() { n.mesh.ResetCounters() }

// Forward exposes forward dense population i (for diagnostics taps).
func (n *Network) Forward(i int) *loihi.Population { return n.fwd[i] }

// NumForward returns the number of forward dense populations.
func (n *Network) NumForward() int { return len(n.fwd) }

// ErrOut exposes the loss-layer error channel pair, or nils on an
// inference-only deployment.
func (n *Network) ErrOut() (pos, neg *loihi.Population) { return n.errOutPos, n.errOutNeg }

// Label exposes the label population (nil on inference-only deployments).
func (n *Network) Label() *loihi.Population { return n.label }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// CoresUsed returns the number of occupied cores.
func (n *Network) CoresUsed() int { return n.mesh.ActiveCores() }

// MaxNeuronsPerCore returns the busiest core occupancy.
func (n *Network) MaxNeuronsPerCore() int { return n.mesh.MaxCompartmentsOnACore() }

// MaxPlasticNeuronsPerCore returns the busiest core occupancy among the
// populations that hold plastic synapses (the forward dense layers).
// These cores pace the barrier-synchronised step: the microcode learning
// engine services each plastic compartment's synapses serially, which is
// why Fig 3's execution time grows with the neurons-per-core knob while
// the fixed conv cores do not contribute.
func (n *Network) MaxPlasticNeuronsPerCore() int {
	m := 0
	for _, p := range n.fwd {
		per := n.perCoreOf[p]
		if p.N < per {
			per = p.N
		}
		if per > m {
			m = per
		}
	}
	return m
}

// NumPlasticLayers returns the count of trainable dense layers.
func (n *Network) NumPlasticLayers() int { return len(n.plastic) }

// Plastic exposes trainable synapse group i (input-side first) for
// weight inspection and serialization.
func (n *Network) Plastic(i int) *loihi.SynapseGroup { return n.plastic[i] }

// NumPlasticSynapses returns the count of learning synapses.
func (n *Network) NumPlasticSynapses() int {
	total := 0
	for _, g := range n.plastic {
		total += g.Synapses()
	}
	return total
}

// SetLRReduced toggles the reduced learning rate used by the incremental
// protocol's learn-new step: two extra shift bits, η/4, matching the
// full-precision reference.
func (n *Network) SetLRReduced(reduced bool) {
	var delta uint
	if reduced {
		delta = 2
	}
	for i, shift := range n.baseShifts {
		n.plastic[i].Shift = shift + delta
	}
}

// SetOutputDisabled freezes the given output classes: their classifier
// rows stop learning and their loss-layer error neurons are silenced —
// the chip realisation of the incremental-learning step-1 protocol. The
// mask must hold one entry per output neuron.
func (n *Network) SetOutputDisabled(disabled []bool) {
	last := n.plastic[len(n.plastic)-1]
	if len(disabled) != last.Post.N {
		panic("chipnet: disabled mask length mismatch")
	}
	last.FrozenPost = slices.Clone(disabled)
	for i, d := range disabled {
		n.errOutPos.SetDisabled(i, d)
		n.errOutNeg.SetDisabled(i, d)
	}
}

// EnableAllOutputs clears the disabled mask.
func (n *Network) EnableAllOutputs() {
	n.plastic[len(n.plastic)-1].FrozenPost = nil
	for i := 0; i < n.errOutPos.N; i++ {
		n.errOutPos.SetDisabled(i, false)
		n.errOutNeg.SetDisabled(i, false)
	}
}
