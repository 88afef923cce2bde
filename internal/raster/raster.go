// Package raster records and renders spike rasters — the standard
// diagnostic view of spiking network activity. A Recorder taps chosen
// populations each timestep; Render produces an ASCII raster (neurons ×
// time) of the kind the neuromorphic literature plots, useful for
// inspecting the two-phase EMSTDP schedule (phase-1 settling, label
// onset, error-driven corrections) without any plotting stack.
package raster

import (
	"fmt"
	"strings"

	"emstdp/internal/loihi"
)

// Recorder captures spike trains from populations over a run.
type Recorder struct {
	taps  []*loihi.Population
	names []string
	// trains[tap][t] is the spike mask at step t.
	trains [][][]bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Tap registers a population to record under the given display name.
func (r *Recorder) Tap(name string, p *loihi.Population) {
	r.taps = append(r.taps, p)
	r.names = append(r.names, name)
	r.trains = append(r.trains, nil)
}

// Observe captures one timestep from every tapped population. Call it
// after each step: set it as the board's loihi.Mesh.OnStep probe.
func (r *Recorder) Observe() {
	for i, p := range r.taps {
		mask := make([]bool, p.N)
		p.SpikeBits().ToBools(mask)
		r.trains[i] = append(r.trains[i], mask)
	}
}

// Reset discards recorded trains (taps are kept).
func (r *Recorder) Reset() {
	for i := range r.trains {
		r.trains[i] = nil
	}
}

// Steps returns the number of recorded timesteps.
func (r *Recorder) Steps() int {
	if len(r.trains) == 0 {
		return 0
	}
	return len(r.trains[0])
}

// SpikeCount returns tapped population i's total recorded spikes.
func (r *Recorder) SpikeCount(i int) int {
	n := 0
	for _, mask := range r.trains[i] {
		for _, s := range mask {
			if s {
				n++
			}
		}
	}
	return n
}

// Rates returns tapped population i's per-neuron firing rates.
func (r *Recorder) Rates(i int) []float64 {
	if len(r.trains[i]) == 0 {
		return nil
	}
	out := make([]float64, len(r.trains[i][0]))
	for _, mask := range r.trains[i] {
		for j, s := range mask {
			if s {
				out[j]++
			}
		}
	}
	for j := range out {
		out[j] /= float64(len(r.trains[i]))
	}
	return out
}

// Render writes an ASCII raster: one row per neuron ('|' = spike), a row
// group per tapped population, marks every markEvery steps on the axis.
// maxNeurons caps rows per population (0 = all).
func (r *Recorder) Render(sb *strings.Builder, maxNeurons, markEvery int) {
	steps := r.Steps()
	for i, name := range r.names {
		fmt.Fprintf(sb, "%s (%d neurons, %d spikes)\n", name, len(r.trains[i][0]), r.SpikeCount(i))
		n := len(r.trains[i][0])
		if maxNeurons > 0 && n > maxNeurons {
			n = maxNeurons
		}
		for j := 0; j < n; j++ {
			fmt.Fprintf(sb, "%4d ", j)
			for t := 0; t < steps; t++ {
				if r.trains[i][t][j] {
					sb.WriteByte('|')
				} else {
					sb.WriteByte('.')
				}
			}
			sb.WriteByte('\n')
		}
		if maxNeurons > 0 && len(r.trains[i][0]) > maxNeurons {
			fmt.Fprintf(sb, "     ... %d more neurons elided\n", len(r.trains[i][0])-maxNeurons)
		}
	}
	if markEvery > 0 && steps > 0 {
		sb.WriteString("     ")
		for t := 0; t < steps; t++ {
			if t%markEvery == 0 {
				sb.WriteByte('+')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
}

// String renders the full raster with defaults.
func (r *Recorder) String() string {
	var sb strings.Builder
	r.Render(&sb, 0, 10)
	return sb.String()
}
