package raster

import (
	"strings"
	"testing"

	"emstdp/internal/loihi"
)

// board registers p whole on a one-die mesh whose OnStep probe feeds a
// fresh recorder tapping p.
func board(t *testing.T, p *loihi.Population, perCore int) (*loihi.Mesh, *Recorder) {
	t.Helper()
	mesh, err := loihi.NewMesh(loihi.DefaultHardware(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.AddPopulation(p, 0, 0, p.N, 0, perCore); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.Tap(p.Name, p)
	mesh.OnStep = rec.Observe
	return mesh, rec
}

func setup(t *testing.T) (*loihi.Mesh, *loihi.Population, *Recorder) {
	t.Helper()
	p := loihi.NewPopulation("p", loihi.PopulationConfig{N: 3, Theta: 4, VMin: -4})
	mesh, rec := board(t, p, 10)
	return mesh, p, rec
}

func TestRecorderCaptures(t *testing.T) {
	mesh, p, rec := setup(t)
	p.SetBiases([]int32{4, 2, 0}) // rates 1, 0.5, 0
	mesh.Run(8)
	if rec.Steps() != 8 {
		t.Fatalf("steps = %d", rec.Steps())
	}
	if got := rec.SpikeCount(0); got != 8+4 {
		t.Errorf("spike count = %d, want 12", got)
	}
	rates := rec.Rates(0)
	if rates[0] != 1 || rates[1] != 0.5 || rates[2] != 0 {
		t.Errorf("rates = %v", rates)
	}
}

func TestRenderShape(t *testing.T) {
	mesh, p, rec := setup(t)
	p.SetBiases([]int32{4, 0, 0})
	mesh.Run(5)
	out := rec.String()
	if !strings.Contains(out, "p (3 neurons, 5 spikes)") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "|||||") {
		t.Errorf("neuron 0's solid train missing:\n%s", out)
	}
	if !strings.Contains(out, ".....") {
		t.Errorf("silent neuron's row missing:\n%s", out)
	}
}

func TestRenderElision(t *testing.T) {
	p := loihi.NewPopulation("big", loihi.PopulationConfig{N: 20, Theta: 4, VMin: -4})
	mesh, rec := board(t, p, 30)
	mesh.Run(3)
	var sb strings.Builder
	rec.Render(&sb, 5, 0)
	if !strings.Contains(sb.String(), "15 more neurons elided") {
		t.Errorf("elision note missing:\n%s", sb.String())
	}
}

func TestReset(t *testing.T) {
	mesh, p, rec := setup(t)
	p.SetBiases([]int32{4, 4, 4})
	mesh.Run(4)
	rec.Reset()
	if rec.Steps() != 0 {
		t.Error("reset did not clear trains")
	}
	mesh.Run(2)
	if rec.Steps() != 2 {
		t.Error("recorder unusable after reset")
	}
}
