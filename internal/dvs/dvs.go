// Package dvs synthesises event-camera (dynamic vision sensor) gesture
// streams — the sensor class the paper's introduction motivates
// neuromorphic processors with: sparse, event-driven output that a
// spiking network consumes natively, one spike per event, no frames.
//
// A gesture is a bright blob moving along a class-specific trajectory
// over a H×W sensor for T timesteps. Each timestep yields the set of
// pixels whose brightness changed (the moving edge), i.e. a spike mask.
// The generator is procedural and deterministic given a seed, standing
// in for recordings like DVS128-Gesture.
package dvs

import (
	"fmt"
	"math"

	"emstdp/internal/rng"
)

// Gesture identifies a motion class.
type Gesture int

// The eight gesture classes: four straight swipes, two diagonals and two
// circular motions. Their event-rate footprints differ spatially, which
// is what a rate-coded classifier discriminates.
const (
	SwipeRight Gesture = iota
	SwipeLeft
	SwipeUp
	SwipeDown
	DiagonalNESW
	DiagonalNWSE
	CircleCW
	CircleCCW
	NumGestures
)

// String names the gesture.
func (g Gesture) String() string {
	switch g {
	case SwipeRight:
		return "swipe-right"
	case SwipeLeft:
		return "swipe-left"
	case SwipeUp:
		return "swipe-up"
	case SwipeDown:
		return "swipe-down"
	case DiagonalNESW:
		return "diagonal-ne-sw"
	case DiagonalNWSE:
		return "diagonal-nw-se"
	case CircleCW:
		return "circle-cw"
	case CircleCCW:
		return "circle-ccw"
	default:
		return fmt.Sprintf("Gesture(%d)", int(g))
	}
}

// Sample is one labelled event stream: Events[t][y*W+x] reports an event
// at pixel (y,x) during timestep t.
type Sample struct {
	Events  [][]bool
	Label   Gesture
	H, W, T int
}

// EventCount returns the total number of events in the stream.
func (s *Sample) EventCount() int {
	n := 0
	for _, mask := range s.Events {
		for _, e := range mask {
			if e {
				n++
			}
		}
	}
	return n
}

// RateMap returns per-pixel event rates in [0,1] — the frame a
// rate-coded (bias-driven) pipeline would use instead of the raw events.
func (s *Sample) RateMap() []float64 {
	out := make([]float64, s.H*s.W)
	for _, mask := range s.Events {
		for i, e := range mask {
			if e {
				out[i]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(s.T)
		if out[i] > 1 {
			out[i] = 1
		}
	}
	return out
}

// Config parameterises the sensor and gesture dynamics.
type Config struct {
	H, W int // sensor resolution
	T    int // stream length in timesteps
	// BlobRadius is the moving object's radius in pixels.
	BlobRadius float64
	// NoiseRate is the per-pixel background event probability per step
	// (sensor shot noise).
	NoiseRate float64
}

// DefaultConfig matches the chip experiments: a 16×16 sensor over the
// paper's T=64 window.
func DefaultConfig() Config {
	return Config{H: 16, W: 16, T: 64, BlobRadius: 2.2, NoiseRate: 0.002}
}

// position returns the blob centre at progress u ∈ [0,1] for a gesture,
// with per-sample jitter in amplitude and offset.
func position(g Gesture, u, jA, jOy, jOx float64, h, w float64) (y, x float64) {
	cy, cx := h/2+jOy, w/2+jOx
	span := (h/2 - 2) * jA
	switch g {
	case SwipeRight:
		return cy, cx + (2*u-1)*span
	case SwipeLeft:
		return cy, cx - (2*u-1)*span
	case SwipeUp:
		return cy - (2*u-1)*span, cx
	case SwipeDown:
		return cy + (2*u-1)*span, cx
	case DiagonalNESW:
		return cy + (2*u-1)*span, cx - (2*u-1)*span
	case DiagonalNWSE:
		return cy + (2*u-1)*span, cx + (2*u-1)*span
	case CircleCW:
		a := 2 * math.Pi * u
		return cy + span*math.Sin(a), cx + span*math.Cos(a)
	case CircleCCW:
		a := 2 * math.Pi * u
		return cy - span*math.Sin(a), cx + span*math.Cos(a)
	}
	return cy, cx
}

// Generate synthesises one gesture sample.
func Generate(cfg Config, g Gesture, r *rng.Source) *Sample {
	s := &Sample{
		Events: make([][]bool, cfg.T),
		Label:  g,
		H:      cfg.H, W: cfg.W, T: cfg.T,
	}
	jA := r.Uniform(0.75, 1.0)  // amplitude jitter
	jOy := r.Uniform(-1.5, 1.5) // path offset jitter
	jOx := r.Uniform(-1.5, 1.5)
	// Gesture recordings repeat the motion several times within the
	// capture window (as in DVS128-Gesture); the repetition rate is also
	// what keeps the event stream dense enough to drive integrate-and-
	// fire neurons within one phase.
	speed := r.Uniform(2.2, 3.2)

	prev := make([]bool, cfg.H*cfg.W)
	occ := make([]bool, cfg.H*cfg.W)
	for t := 0; t < cfg.T; t++ {
		u := math.Mod(float64(t)/float64(cfg.T)*speed, 1.0)
		cy, cx := position(g, u, jA, jOy, jOx, float64(cfg.H), float64(cfg.W))

		for i := range occ {
			occ[i] = false
		}
		r2 := cfg.BlobRadius * cfg.BlobRadius
		for y := int(cy - cfg.BlobRadius - 1); y <= int(cy+cfg.BlobRadius+1); y++ {
			if y < 0 || y >= cfg.H {
				continue
			}
			for x := int(cx - cfg.BlobRadius - 1); x <= int(cx+cfg.BlobRadius+1); x++ {
				if x < 0 || x >= cfg.W {
					continue
				}
				dy, dx := float64(y)-cy, float64(x)-cx
				if dy*dy+dx*dx <= r2 {
					occ[y*cfg.W+x] = true
				}
			}
		}

		// DVS semantics: events where occupancy changed since last step,
		// plus background noise.
		mask := make([]bool, cfg.H*cfg.W)
		for i := range mask {
			mask[i] = occ[i] != prev[i]
			if !mask[i] && cfg.NoiseRate > 0 && r.Bernoulli(cfg.NoiseRate) {
				mask[i] = true
			}
		}
		copy(prev, occ)
		s.Events[t] = mask
	}
	return s
}

// generator yields a class-balanced gesture draw sequence one sample
// at a time — sample i is gesture i mod NumGestures with fresh jitter.
// NewDataset materialises and shuffles it.
type generator struct {
	cfg Config
	r   *rng.Source
	n   int
}

// Next synthesises the next sample of the stream.
func (g *generator) Next() *Sample {
	s := Generate(g.cfg, Gesture(g.n%int(NumGestures)), g.r)
	g.n++
	return s
}

// Dataset is a labelled gesture corpus.
type Dataset struct {
	Cfg         Config
	Train, Test []*Sample
}

// NewDataset generates a balanced gesture corpus by materialising a
// generator stream and shuffling it.
func NewDataset(cfg Config, nTrain, nTest int, seed uint64) *Dataset {
	r := rng.New(seed)
	gen := func(n int, src *rng.Source) []*Sample {
		g := &generator{cfg: cfg, r: src}
		out := make([]*Sample, n)
		for i := range out {
			out[i] = g.Next()
		}
		src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return &Dataset{
		Cfg:   cfg,
		Train: gen(nTrain, r.Split()),
		Test:  gen(nTest, r.Split()),
	}
}
