package loihi

import (
	"fmt"

	"emstdp/internal/fixed"
	"emstdp/internal/spike"
)

// coreSlice records a population's occupancy of one core.
type coreSlice struct {
	Core  int
	Count int
}

// PopulationConfig describes the compartment dynamics of a population.
// All state is integer, mirroring the chip's registers.
type PopulationConfig struct {
	// N is the number of compartments.
	N int
	// Theta is the firing threshold (membrane units).
	Theta int32
	// VMin floors the membrane potential (the register saturates rather
	// than wraps). Set to a small negative multiple of Theta.
	VMin int32
	// LeakShift, when nonzero, applies a per-step membrane leak
	// v -= v>>LeakShift — the CUBA leak of eq (8). Zero gives the IF
	// configuration of §III-A (τv at maximum, no leak).
	LeakShift uint
	// CurrentDecayShift, when nonzero, retains synaptic current between
	// steps with decay u -= u>>shift. Zero makes current decay
	// immediately (the paper's IF configuration).
	CurrentDecayShift uint
	// Source marks a host-driven spike source: the population has no
	// compartment dynamics and emits exactly the spikes the host injects
	// each step via InjectSpikes — the mesh-level spike-insertion input
	// path that §III-D's bias coding replaces. Each injected spike costs
	// one host transaction.
	Source bool
	// HomeostasisUp, when nonzero, enables Loihi's adaptive-threshold
	// homeostasis: each spike raises the compartment's effective
	// threshold by this amount, and the adaptation decays by
	// 1/2^HomeostasisDecayShift per step. Frequent winners become harder
	// to fire, letting competitors specialise — the mechanism
	// unsupervised STDP networks rely on. Adaptation state is slow
	// plasticity: it survives the per-sample state reset, like weights.
	HomeostasisUp         int32
	HomeostasisDecayShift uint
	// Gated marks a two-compartment neuron: the soma's spike output is
	// ANDed with the auxiliary compartment's latched activity (§III-A).
	Gated bool
	// GateLo/GateHi bound the aux activity count for the gate to pass;
	// this realises h′ of the shifted ReLU: active but not saturated.
	GateLo, GateHi int
}

// Population is a bank of compartments sharing one configuration, the
// unit the netlist builder works in (one population per layer/channel).
type Population struct {
	Name string
	N    int
	cfg  PopulationConfig

	Bias []int32 // per-compartment bias, host-programmable

	v   []int32 // membrane potential
	u   []int32 // synaptic current (used only with CurrentDecayShift > 0)
	acc []int32 // this step's synaptic input accumulator
	// adaptTheta is the homeostatic threshold adaptation (slow state,
	// survives sample resets).
	adaptTheta []int32

	// bitsNow collects this step's spikes: the compartment update sets
	// the bit of each compartment that fires (InjectSpikes stages a
	// source's), and rotate swaps it into bitsPrev, the word-parallel
	// view synapse groups read this step. Packed delivery traverses
	// bitsPrev's nonzero words with trailing-zeros iteration.
	bitsNow, bitsPrev *spike.Bitset
	// activePrev holds the indices set in bitsPrev (ascending) — the
	// sparse view event-driven consumers iterate. Gathered from bitsPrev
	// at rotate, so the two views cannot disagree.
	activePrev *spike.ActiveList

	// postTrace counts this population's spikes since the last phase
	// reset (Loihi's postsynaptic trace, no decay: EMSTDP uses it as ĥ).
	postTrace []uint8

	// auxActivity counts spikes of the aux-linked population (set via
	// AuxSource); gateMask is latched from it at the phase boundary.
	auxSrc      *Population
	auxActivity []int32
	gateMask    []bool

	// disabled compartments never fire and hold their membrane at zero —
	// the host sets this by programming the compartment threshold to its
	// maximum (incremental learning disables old-class error neurons).
	disabled []bool

	// phaseGate, when set, live-gates the soma output on a single
	// control neuron: spikes pass only while the control neuron is
	// firing. EMSTDP drives the error path's control neuron with a host
	// bias write at the phase-1→2 boundary, keeping the whole error
	// network silent during phase 1.
	phaseGate *Population

	fanIn int
}

// NewPopulation builds a population from a config.
func NewPopulation(name string, cfg PopulationConfig) *Population {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("loihi: population %q needs positive size", name))
	}
	if cfg.Theta <= 0 && !cfg.Source {
		panic(fmt.Sprintf("loihi: population %q needs positive threshold", name))
	}
	p := &Population{
		Name:       name,
		N:          cfg.N,
		cfg:        cfg,
		Bias:       make([]int32, cfg.N),
		v:          make([]int32, cfg.N),
		acc:        make([]int32, cfg.N),
		bitsNow:    spike.NewBitset(cfg.N),
		bitsPrev:   spike.NewBitset(cfg.N),
		activePrev: spike.NewActiveList(cfg.N),
		postTrace:  make([]uint8, cfg.N),
	}
	if cfg.CurrentDecayShift > 0 {
		p.u = make([]int32, cfg.N)
	}
	if cfg.HomeostasisUp > 0 {
		p.adaptTheta = make([]int32, cfg.N)
	}
	if cfg.Gated {
		p.auxActivity = make([]int32, cfg.N)
		p.gateMask = make([]bool, cfg.N)
	}
	return p
}

// Config returns the population's compartment configuration.
func (p *Population) Config() PopulationConfig { return p.cfg }

// AuxSource links the auxiliary compartments to another population of the
// same size: each aux compartment integrates the activity of the
// corresponding src neuron (the forward-path partner in the EMSTDP error
// network).
func (p *Population) AuxSource(src *Population) {
	if !p.cfg.Gated {
		panic(fmt.Sprintf("loihi: population %q is not gated", p.Name))
	}
	if src.N != p.N {
		panic(fmt.Sprintf("loihi: aux source %q size %d != %q size %d", src.Name, src.N, p.Name, p.N))
	}
	p.auxSrc = src
}

// SetDisabled marks compartment i disabled (true) or enabled (false).
// Disabled compartments never fire and hold their membrane at zero.
func (p *Population) SetDisabled(i int, d bool) {
	if p.disabled == nil {
		p.disabled = make([]bool, p.N)
	}
	p.disabled[i] = d
}

// Disabled reports whether compartment i is disabled.
func (p *Population) Disabled(i int) bool {
	return p.disabled != nil && p.disabled[i]
}

// SetPhaseGate live-gates this population's output on a size-1 control
// population: spikes pass only on steps where the control neuron's
// previous-step spike is high (an additional AND compartment in the
// dendritic tree).
func (p *Population) SetPhaseGate(ctrl *Population) {
	if ctrl.N != 1 {
		panic(fmt.Sprintf("loihi: phase gate source %q must have one neuron", ctrl.Name))
	}
	p.phaseGate = ctrl
}

// SetBiases programs per-compartment biases (one host transaction's worth
// of data; the caller accounts for it via Chip.CountHostTransaction).
func (p *Population) SetBiases(b []int32) {
	if len(b) != p.N {
		panic(fmt.Sprintf("loihi: population %q bias length %d != %d", p.Name, len(b), p.N))
	}
	copy(p.Bias, b)
}

// SpikeBits returns last step's spikes, the ones visible to synapses
// this step: bit i set means compartment i fired (valid until the next
// step).
func (p *Population) SpikeBits() *spike.Bitset { return p.bitsPrev }

// ActiveSpikes returns the ascending indices set in SpikeBits() — the
// sparse view of the same step (valid until the next step).
func (p *Population) ActiveSpikes() []int32 { return p.activePrev.Indices() }

// PostTrace returns the post-synaptic trace value of compartment i.
func (p *Population) PostTrace(i int) uint8 { return p.postTrace[i] }

// PostTraces returns the post trace array (not a copy).
func (p *Population) PostTraces() []uint8 { return p.postTrace }

// Potential returns the membrane potential of compartment i.
func (p *Population) Potential(i int) int32 { return p.v[i] }

// addInput accumulates synaptic drive for this step.
func (p *Population) addInput(i int, w int32) {
	p.acc[i] = fixed.SatAdd32(p.acc[i], w, fixed.StateMin, fixed.StateMax)
}

// InjectSpikes queues host spike events for the next step (Source
// populations only), replacing any staged this step. Returns the number
// of injected spikes, which the caller accounts as host transactions.
func (p *Population) InjectSpikes(spikes []bool) int {
	if !p.cfg.Source {
		panic(fmt.Sprintf("loihi: population %q is not a spike source", p.Name))
	}
	if len(spikes) != p.N {
		panic(fmt.Sprintf("loihi: population %q spike vector %d != %d", p.Name, len(spikes), p.N))
	}
	p.bitsNow.FromBools(spikes)
	return p.bitsNow.Count()
}

// updateRange advances compartments [lo,hi) only — the slice of the
// population a die hosts under a multi-chip partition — setting the
// bitsNow bit of every compartment that fires. Compartment dynamics are
// strictly per-neuron, so range-partitioned updates compose to exactly
// the full update regardless of how [0,N) is cut. Ranges need not be
// word-aligned: dies update one after another, and each ORs only its
// own bits into words rotate cleared.
func (p *Population) updateRange(lo, hi int) int {
	now := p.bitsNow.Words()
	trace := p.postTrace[lo:hi]
	if p.cfg.Source {
		// Host-injected spikes pass straight through; they were staged
		// by InjectSpikes into bitsNow.
		n := 0
		for j := range trace {
			i := lo + j
			if now[i>>6]>>(uint(i)&63)&1 != 0 {
				n++
				trace[j] = fixed.SatTrace(int64(trace[j]) + 1)
			}
		}
		return n
	}
	// Locals for everything the loop reads but never writes, and
	// sub-slices of one length so the compiler drops their bounds
	// checks. The phase gate is the control neuron's previous-step
	// spike, which nothing in this step's updates can change.
	theta0, vmin := p.cfg.Theta, p.cfg.VMin
	leak, decay := p.cfg.LeakShift, p.cfg.CurrentDecayShift
	homUp, homDecay := p.cfg.HomeostasisUp, p.cfg.HomeostasisDecayShift
	open := p.phaseGate == nil || p.phaseGate.bitsPrev.Get(0)
	acc := p.acc[lo:hi]
	n := len(acc)
	v, bias := p.v[lo:hi][:n], p.Bias[lo:hi][:n]
	trace = trace[:n]
	var u, adapt []int32
	var gate, disabled []bool
	if p.u != nil {
		u = p.u[lo:hi][:n]
	}
	if p.adaptTheta != nil {
		adapt = p.adaptTheta[lo:hi][:n]
	}
	if p.gateMask != nil {
		gate = p.gateMask[lo:hi][:n]
	}
	if p.disabled != nil {
		disabled = p.disabled[lo:hi][:n]
	}
	spikes := 0
	for j := range acc {
		drive := acc[j]
		acc[j] = 0
		if disabled != nil && disabled[j] {
			v[j] = 0
			continue
		}
		if u != nil {
			// CUBA current: decay then integrate new arrivals.
			uj := u[j] - u[j]>>decay
			drive = fixed.SatAdd32(uj, drive, fixed.StateMin, fixed.StateMax)
			u[j] = drive
		}
		vj := v[j]
		if leak > 0 {
			vj -= vj >> leak
		}
		vj = fixed.SatAdd32(vj, fixed.SatAdd32(drive, bias[j], fixed.StateMin, fixed.StateMax),
			fixed.StateMin, fixed.StateMax)

		theta := theta0
		if adapt != nil {
			adapt[j] -= adapt[j] >> homDecay
			theta += adapt[j]
		}
		fired := vj >= theta
		if fired {
			vj -= theta // reset by subtraction preserves eq (2)
			if adapt != nil {
				adapt[j] = fixed.SatAdd32(adapt[j], homUp, 0, fixed.StateMax)
			}
		}
		if vj < vmin {
			vj = vmin
		}
		v[j] = vj

		// The AND gates: a latched-inactive aux compartment or a silent
		// phase-control neuron swallows the soma spike (the threshold
		// crossing still consumed the potential).
		if fired && open && (gate == nil || gate[j]) {
			i := lo + j
			now[i>>6] |= 1 << (uint(i) & 63)
			spikes++
			trace[j] = fixed.SatTrace(int64(trace[j]) + 1)
		}
	}
	// Aux compartments integrate their source's current spikes
	// (event-driven: only the firing partners are touched; range-limited
	// so die-partitioned updates never double-count a partner).
	if p.auxSrc != nil {
		for _, i := range p.auxSrc.activePrev.Indices() {
			if int(i) >= lo && int(i) < hi {
				p.auxActivity[i]++
			}
		}
	}
	return spikes
}

// rotate publishes this step's spikes to the synapse-visible bitset,
// clears the next step's and gathers the active-index view (derived from
// the bitset, so the two can never disagree). Injected source spikes are
// one-shot events, cleared with the rest.
func (p *Population) rotate() {
	p.bitsPrev, p.bitsNow = p.bitsNow, p.bitsPrev
	p.bitsNow.Zero()
	p.activePrev.GatherBits(p.bitsPrev)
}

// latchGate snapshots aux activity into the gate mask.
func (p *Population) latchGate() {
	if !p.cfg.Gated {
		return
	}
	for i, a := range p.auxActivity {
		p.gateMask[i] = int(a) >= p.cfg.GateLo && int(a) <= p.cfg.GateHi
	}
}

// resetPostTrace zeroes the post trace (phase boundary).
func (p *Population) resetPostTrace() {
	for i := range p.postTrace {
		p.postTrace[i] = 0
	}
}

// resetDynamics zeroes membranes, currents, accumulators and spike
// buffers, keeping traces, aux activity and gate masks (phase boundary).
func (p *Population) resetDynamics() {
	for i := 0; i < p.N; i++ {
		p.v[i] = 0
		p.acc[i] = 0
		if p.u != nil {
			p.u[i] = 0
		}
	}
	p.clearSpikes()
}

// reset zeroes all dynamic state (sample boundary). Biases persist: they
// are host-programmed per sample.
func (p *Population) reset() {
	for i := 0; i < p.N; i++ {
		p.v[i] = 0
		p.acc[i] = 0
		p.postTrace[i] = 0
		if p.u != nil {
			p.u[i] = 0
		}
		if p.auxActivity != nil {
			p.auxActivity[i] = 0
			p.gateMask[i] = false
		}
	}
	p.clearSpikes()
}

// clearSpikes empties both spike bitsets and the active list.
func (p *Population) clearSpikes() {
	p.bitsNow.Zero()
	p.bitsPrev.Zero()
	p.activePrev.Reset()
}
