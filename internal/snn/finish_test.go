package snn

import (
	"math"
	"slices"
	"testing"

	"emstdp/internal/rng"
)

// finishRef is a scalar copy of the branching neuron finish: integrate
// the drive, fire at θ with reset by subtraction, then floor the
// membrane at umin with an if. It updates u in place and returns the
// step's spikes.
func finishRef(u, drive []float64, theta, umin float64) []bool {
	spikes := make([]bool, len(u))
	for o, a := range drive {
		v := u[o] + a
		fired := v >= theta
		if fired {
			v -= theta
		}
		if v < umin {
			v = umin
		}
		u[o] = v
		spikes[o] = fired
	}
	return spikes
}

// checkFinish compares the layer's membrane, bitset and active list after
// a step with the reference's membrane and spikes, bit for bit.
func checkFinish(t *testing.T, what string, step int, l *IFLayer, u []float64, spikes []bool) {
	t.Helper()
	for o := range u {
		if got := l.Potential(o); math.Float64bits(got) != math.Float64bits(u[o]) {
			t.Fatalf("%s step %d: u[%d] = %v, branching reference %v", what, step, o, got, u[o])
		}
		if got := l.Bits().Get(o); got != spikes[o] {
			t.Fatalf("%s step %d: spike[%d] = %v, branching reference %v", what, step, o, got, spikes[o])
		}
	}
	var want []int32
	for o, s := range spikes {
		if s {
			want = append(want, int32(o))
		}
	}
	if got := l.Active(); !slices.Equal(got, want) {
		t.Fatalf("%s step %d: active %v, branching reference %v", what, step, got, want)
	}
	if got := l.Bits().Count(); got != len(want) {
		t.Fatalf("%s step %d: bitset popcount %d, want %d", what, step, got, len(want))
	}
}

// TestFinishMatchesBranchingReference drives the neuron finish through
// both entry points and compares it with finishRef after every step.
// Step runs on random spikes and weights, and the reference gets the
// drive the layer recorded. StepDrive runs on crafted drives that land
// the membrane exactly at θ, exactly at UMin, below UMin and far below
// it. The layer widths cover a short word, a full word, and partial
// tail words.
func TestFinishMatchesBranchingReference(t *testing.T) {
	const in, steps, theta = 37, 300, 1.0
	// Membrane targets before the floor; all dyadic, so u + (target - u)
	// lands on the target exactly from every membrane they leave behind.
	targets := []float64{theta, -theta, -1.5 * theta, -1e9, 0, 0.25, theta - 0.125, 1.5 * theta, 3 * theta}
	for _, out := range []int{10, 64, 100, 130} {
		stepped := NewIFLayer(rng.New(uint64(out)), in, out, 0.6, theta)
		rng.New(uint64(out)+1).FillUniform(stepped.Bias, -0.3, 0.3)
		replayed := NewIFLayer(rng.New(1), in, out, 0.6, theta)
		r := rng.New(uint64(out) + 2)
		uStep, uReplay := make([]float64, out), make([]float64, out)
		drive := make([]float64, out)
		var atTheta, atUMin, belowUMin int
		for s := 0; s < steps; s++ {
			stepped.Step(randomSpikes(r, in, 0.3))
			checkFinish(t, "Step", s, stepped, uStep, finishRef(uStep, stepped.Drive(), theta, stepped.UMin))

			for o := range drive {
				target := targets[r.Intn(len(targets))]
				drive[o] = target - uReplay[o]
				switch {
				case uReplay[o]+drive[o] == theta:
					atTheta++
				case uReplay[o]+drive[o] == replayed.UMin:
					atUMin++
				case uReplay[o]+drive[o] < replayed.UMin:
					belowUMin++
				}
			}
			replayed.StepDrive(drive)
			checkFinish(t, "StepDrive", s, replayed, uReplay, finishRef(uReplay, drive, theta, replayed.UMin))
		}
		if atTheta == 0 || atUMin == 0 || belowUMin == 0 {
			t.Fatalf("out %d: crafted drives hit θ %d, UMin %d, below UMin %d times; want each hit", out, atTheta, atUMin, belowUMin)
		}
	}
}
