package loihi

import (
	"slices"
	"testing"

	"emstdp/internal/fixed"
	"emstdp/internal/rng"
	"emstdp/internal/spike"
)

// refPopulation is the per-compartment update as it stood before the
// compartment loop wrote the spike bitset itself: dense []bool spike
// buffers, the configuration read through the struct on every
// compartment, and the bitset left for rotate to rebuild. The control
// and aux-source populations are shared with the population under test
// and read through their public views.
type refPopulation struct {
	cfg                   PopulationConfig
	bias, v, acc          []int32
	postTrace             []uint8
	auxActivity           []int32
	gateMask, disabled    []bool
	spikesNow, spikesPrev []bool
	auxSrc, phaseGate     *Population
	// satHi and satLo count membrane sums clamped at StateMax/StateMin.
	satHi, satLo int
}

func newRefPopulation(cfg PopulationConfig) *refPopulation {
	r := &refPopulation{
		cfg:        cfg,
		bias:       make([]int32, cfg.N),
		v:          make([]int32, cfg.N),
		acc:        make([]int32, cfg.N),
		postTrace:  make([]uint8, cfg.N),
		disabled:   make([]bool, cfg.N),
		spikesNow:  make([]bool, cfg.N),
		spikesPrev: make([]bool, cfg.N),
	}
	if cfg.Gated {
		r.auxActivity = make([]int32, cfg.N)
		r.gateMask = make([]bool, cfg.N)
	}
	return r
}

func (r *refPopulation) addInput(i int, w int32) {
	r.acc[i] = fixed.SatAdd32(r.acc[i], w, fixed.StateMin, fixed.StateMax)
}

func (r *refPopulation) updateRange(lo, hi int) int {
	spikes := 0
	for i := lo; i < hi; i++ {
		drive := r.acc[i]
		r.acc[i] = 0
		if r.disabled[i] {
			r.v[i] = 0
			r.spikesNow[i] = false
			continue
		}
		v := r.v[i]
		in := fixed.SatAdd32(drive, r.bias[i], fixed.StateMin, fixed.StateMax)
		switch sum := int64(v) + int64(in); {
		case sum > fixed.StateMax:
			r.satHi++
		case sum < fixed.StateMin:
			r.satLo++
		}
		v = fixed.SatAdd32(v, in, fixed.StateMin, fixed.StateMax)

		fired := false
		if v >= r.cfg.Theta {
			v -= r.cfg.Theta
			fired = true
		}
		if v < r.cfg.VMin {
			v = r.cfg.VMin
		}
		r.v[i] = v
		if fired && r.cfg.Gated && !r.gateMask[i] {
			fired = false
		}
		if fired && r.phaseGate != nil && !r.phaseGate.SpikeBits().Get(0) {
			fired = false
		}
		r.spikesNow[i] = fired
		if fired {
			spikes++
			r.postTrace[i] = fixed.SatTrace(int64(r.postTrace[i]) + 1)
		}
	}
	if r.auxSrc != nil {
		for _, i := range r.auxSrc.ActiveSpikes() {
			if int(i) >= lo && int(i) < hi {
				r.auxActivity[i]++
			}
		}
	}
	return spikes
}

func (r *refPopulation) rotate() {
	r.spikesPrev, r.spikesNow = r.spikesNow, r.spikesPrev
}

func (r *refPopulation) latchGate() {
	for i, a := range r.auxActivity {
		r.gateMask[i] = int(a) >= r.cfg.GateLo && int(a) <= r.cfg.GateHi
	}
}

func (r *refPopulation) resetDynamics() {
	clear(r.v)
	clear(r.acc)
	clear(r.spikesNow)
	clear(r.spikesPrev)
}

func (r *refPopulation) reset() {
	r.resetDynamics()
	clear(r.postTrace)
	clear(r.auxActivity)
	clear(r.gateMask)
}

// Population features the reference test toggles, one bit each. The
// three low bits are left unset so every case keeps the seed
// 1000*feat+si+1, and with it the inputs, it has always drawn.
const (
	featGated = 1 << (iota + 3)
	featPhaseGate
	featDisabled
	featVMinNeg
	featAll
)

// TestPopulationUpdateMatchesReference steps randomised populations
// covering every PopulationConfig feature against refPopulation, each
// population updated whole or as ranges whose edges fall inside bitset
// words (N=130 cut at 63/65 among them), and compares all compartment
// state, the returned spike count, the spike bitset and the active list
// after every step.
func TestPopulationUpdateMatchesReference(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 130, 200}
	var satHi, satLo, fired, gateClosed int
	for feat := 0; feat < featAll; feat += featGated {
		for si, n := range sizes {
			r := rng.New(uint64(1000*feat + si + 1))
			theta := int32(16 + r.Intn(1024))
			cfg := PopulationConfig{N: n, Theta: theta}
			if feat&featVMinNeg != 0 {
				cfg.VMin = -4 * theta
			}
			if feat&featGated != 0 {
				cfg.Gated = true
				cfg.GateLo, cfg.GateHi = 2, 5
			}
			p := NewPopulation("p", cfg)
			ref := newRefPopulation(cfg)

			// Shared inputs: the aux source and the phase-control
			// neuron carry random spikes, staged by the test straight
			// into their bitsNow and published by their rotate.
			aux := NewPopulation("aux", PopulationConfig{N: n, Theta: 1})
			ctrl := NewPopulation("ctrl", PopulationConfig{N: 1, Theta: 1})
			if cfg.Gated {
				p.AuxSource(aux)
				ref.auxSrc = aux
			}
			if feat&featPhaseGate != 0 {
				p.SetPhaseGate(ctrl)
				ref.phaseGate = ctrl
			}
			if feat&featDisabled != 0 {
				for i := 0; i < n; i++ {
					if r.Intn(4) == 0 {
						p.SetDisabled(i, true)
						ref.disabled[i] = true
					}
				}
			}
			bias := make([]int32, n)
			for i := range bias {
				switch r.Intn(8) {
				case 0:
					bias[i] = fixed.StateMax - int32(r.Intn(int(theta)))
				case 1:
					bias[i] = fixed.StateMin + int32(r.Intn(int(theta)))
				default:
					bias[i] = int32(r.Intn(int(theta))) - theta/4
				}
			}
			p.SetBiases(bias)
			copy(ref.bias, bias)

			ranges := [][2]int{{0, n}}
			switch {
			case n == 130:
				ranges = [][2]int{{0, 63}, {63, 65}, {65, 130}}
			case si%2 == 1:
				ranges = splitRanges(n, r)
			}
			inject := make([]bool, n)
			ctrlSpike := make([]bool, 1)
			for step := 0; step < 48; step++ {
				for i := 0; i < n; i++ {
					for k := r.Intn(3); k > 0; k-- {
						w := int32(r.Intn(int(theta))) - theta/3
						if r.Intn(16) == 0 {
							w = fixed.StateMax / 2 // three in a row saturate
							if r.Intn(2) == 0 {
								w = -w
							}
						}
						p.addInput(i, w)
						ref.addInput(i, w)
					}
				}
				for i := range inject {
					inject[i] = r.Intn(3) == 0
				}
				aux.bitsNow.FromBools(inject)
				ctrlSpike[0] = r.Intn(2) == 0
				ctrl.bitsNow.FromBools(ctrlSpike)
				if ref.phaseGate != nil && !ctrl.SpikeBits().Get(0) {
					gateClosed++
				}

				got := 0
				for _, rg := range ranges {
					got += p.updateRange(rg[0], rg[1])
				}
				want := ref.updateRange(0, n)
				p.rotate()
				aux.rotate()
				ctrl.rotate()
				ref.rotate()
				fired += want
				if got != want {
					t.Fatalf("feat %#x N=%d step %d: %d spikes, reference %d", feat, n, step, got, want)
				}
				comparePopulation(t, p, ref, feat, step)

				switch step {
				case 12, 30:
					p.latchGate()
					ref.latchGate()
				case 20:
					p.resetDynamics()
					ref.resetDynamics()
					comparePopulation(t, p, ref, feat, step)
				case 36:
					p.reset()
					ref.reset()
					comparePopulation(t, p, ref, feat, step)
				}
			}
			satHi += ref.satHi
			satLo += ref.satLo
		}
	}
	if satHi == 0 || satLo == 0 || fired == 0 || gateClosed == 0 {
		t.Fatalf("weak coverage: %d/%d membrane saturations at StateMax/StateMin, %d spikes, %d closed-gate steps",
			satHi, satLo, fired, gateClosed)
	}
}

// splitRanges cuts [0,n) into two to four contiguous ranges at random
// points (edges mostly inside bitset words).
func splitRanges(n int, r *rng.Source) [][2]int {
	cuts := []int{0, n}
	for k := r.Intn(3); k >= 0 && n > 1; k-- {
		cuts = append(cuts, 1+r.Intn(n-1))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var out [][2]int
	for i := 1; i < len(cuts); i++ {
		out = append(out, [2]int{cuts[i-1], cuts[i]})
	}
	return out
}

// comparePopulation fails on any difference between p and its reference:
// membrane, traces, aux activity, the published
// spike bitset (trailing bits included) and the active list.
func comparePopulation(t *testing.T, p *Population, ref *refPopulation, feat, step int) {
	t.Helper()
	for name, pair := range map[string][2][]int32{
		"v": {p.v, ref.v}, "auxActivity": {p.auxActivity, ref.auxActivity},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("feat %#x N=%d step %d: %s %v, reference %v", feat, p.N, step, name, pair[0], pair[1])
		}
	}
	if !slices.Equal(p.postTrace, ref.postTrace) {
		t.Fatalf("feat %#x N=%d step %d: postTrace %v, reference %v", feat, p.N, step, p.postTrace, ref.postTrace)
	}
	want := spike.NewBitset(p.N)
	want.FromBools(ref.spikesPrev)
	if !slices.Equal(p.SpikeBits().Words(), want.Words()) {
		t.Fatalf("feat %#x N=%d step %d: spike bits %x, reference %x",
			feat, p.N, step, p.SpikeBits().Words(), want.Words())
	}
	if act := want.AppendIndices(nil); !slices.Equal(p.ActiveSpikes(), act) {
		t.Fatalf("feat %#x N=%d step %d: active %v, reference %v", feat, p.N, step, p.ActiveSpikes(), act)
	}
}
