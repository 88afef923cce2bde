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

// PopulationConfig describes the compartment dynamics of a population:
// the integrate-and-fire configuration of §III-A. Each step a compartment
// adds its synaptic input and bias to its membrane (saturating), fires
// when the membrane reaches Theta, resets by subtracting Theta and is
// floored at VMin. All state is integer, mirroring the chip's registers.
type PopulationConfig struct {
	// N is the number of compartments.
	N int
	// Theta is the firing threshold (membrane units).
	Theta int32
	// VMin floors the membrane potential (the register saturates rather
	// than wraps). Set to a small negative multiple of Theta.
	VMin int32
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
	acc []int32 // this step's synaptic input accumulator

	// bitsNow collects this step's spikes: the compartment update sets
	// the bit of each compartment that fires, and rotate swaps it into
	// bitsPrev, the word-parallel view synapse groups read this step.
	// Sparse packed delivery traverses bitsPrev's nonzero words with
	// trailing-zeros iteration.
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
	if cfg.Theta <= 0 {
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
	if cfg.Gated {
		p.auxActivity = make([]int32, cfg.N)
		p.gateMask = make([]bool, cfg.N)
	}
	return p
}

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
// of data; the caller accounts for it via Mesh.CountHostTransaction).
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

// updateRange advances compartments [lo,hi) only, setting the bitsNow
// bit of every compartment that fires; the mesh updates each population
// in one pass over [0,N). Compartment dynamics are strictly per-neuron,
// so range-partitioned updates compose to exactly the full update
// regardless of how [0,N) is cut. Ranges need not be word-aligned:
// consecutive ranges each OR only their own bits into words rotate
// cleared.
func (p *Population) updateRange(lo, hi int) int {
	// Locals for everything the loop reads but never writes, and
	// sub-slices of one length so the compiler drops their bounds
	// checks. The phase gate is the control neuron's previous-step
	// spike, which nothing in this step's updates can change.
	theta, vmin := p.cfg.Theta, p.cfg.VMin
	open := p.phaseGate == nil || p.phaseGate.bitsPrev.Get(0)
	acc := p.acc[lo:hi]
	n := len(acc)
	v, bias := p.v[lo:hi][:n], p.Bias[lo:hi][:n]
	trace := p.postTrace[lo:hi][:n]
	now := p.bitsNow.Words()
	var gate, disabled []bool
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
		vj := fixed.SatAdd32(v[j], fixed.SatAdd32(drive, bias[j], fixed.StateMin, fixed.StateMax),
			fixed.StateMin, fixed.StateMax)
		fired := vj >= theta
		if fired {
			vj -= theta // reset by subtraction preserves eq (2)
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
// the bitset, so the two can never disagree).
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

// resetDynamics zeroes membranes, accumulators and spike buffers,
// keeping traces, aux activity and gate masks (phase boundary).
func (p *Population) resetDynamics() {
	for i := 0; i < p.N; i++ {
		p.v[i] = 0
		p.acc[i] = 0
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
