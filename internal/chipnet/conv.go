package chipnet

import (
	"fmt"

	"emstdp/internal/ann"
	"emstdp/internal/loihi"
)

// convFront is the fixed spiking convolutional feature extractor: the
// offline-pretrained ANN conv stack converted to IF populations by
// weight–threshold balancing. Each spiking neuron's rate over a phase is
// its ANN activation normalised by the layer's calibrated maximum, so the
// dense trainable layers see the same [0,1] rate distribution as the
// full-precision reference fed by ConvStack.NormalizedRates.
type convFront struct {
	image *loihi.Population
	c1    *loihi.Population
	c2    *loihi.Population
}

// buildConv constructs image → conv1 → conv2 as fixed sparse groups.
func (n *Network) buildConv(cs *ann.ConvStack, inC, inH, inW int) error {
	if cs.A1 <= 0 || cs.A2 <= 0 {
		return fmt.Errorf("chipnet: conv stack not calibrated (call Calibrate first)")
	}
	if cs.Conv1.InC != inC || cs.Conv1.InH != inH || cs.Conv1.InW != inW {
		return fmt.Errorf("chipnet: conv stack expects %dx%dx%d input, got %dx%dx%d",
			cs.Conv1.InC, cs.Conv1.InH, cs.Conv1.InW, inC, inH, inW)
	}
	cfg := n.cfg
	theta := float64(cfg.Theta)

	img := loihi.NewPopulation("image", loihi.PopulationConfig{
		N: inC * inH * inW, Theta: cfg.Theta, VMin: -cfg.Theta,
	})
	if err := n.place(img, cfg.ConvPerCore); err != nil {
		return err
	}

	c1 := loihi.NewPopulation("conv1", loihi.PopulationConfig{
		N: cs.Conv1.OutSize(), Theta: cfg.Theta, VMin: -cfg.Theta,
	})
	if err := n.place(c1, cfg.ConvPerCore, img.Name); err != nil {
		return err
	}
	// Balancing: input rates are raw pixels (A0 = 1), so conv1's spiking
	// weights are w·θ/A1 and rates come out as act1/A1.
	if err := n.connectConv(img, c1, cs.Conv1, theta*1.0/cs.A1, "conv1"); err != nil {
		return err
	}

	c2 := loihi.NewPopulation("conv2", loihi.PopulationConfig{
		N: cs.Conv2.OutSize(), Theta: cfg.Theta, VMin: -cfg.Theta,
	})
	if err := n.place(c2, cfg.ConvPerCore, c1.Name); err != nil {
		return err
	}
	// conv2 inputs arrive as rates act1/A1, so weights scale by A1/A2.
	if err := n.connectConv(c1, c2, cs.Conv2, theta*cs.A1/cs.A2, "conv2"); err != nil {
		return err
	}

	n.conv = &convFront{image: img, c1: c1, c2: c2}
	return nil
}

// connectConv unrolls a strided convolution into a sparse synapse group
// and programs the per-filter biases onto the destination population.
// scale converts an ANN weight into membrane units per input spike.
func (n *Network) connectConv(pre, post *loihi.Population, conv *ann.Conv2D, scale float64, name string) error {
	// Pick the group exponent from the largest effective weight.
	maxAbs := 0.0
	for _, w := range conv.W.Data {
		a := w * scale
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	_, exp := intWeight(maxAbs)
	g := loihi.NewSparseGroup(name, pre, post, exp)

	fanIn := conv.InC * conv.KH * conv.KW
	for oc := 0; oc < conv.Filters; oc++ {
		wRow := conv.W.Data[oc*fanIn : (oc+1)*fanIn]
		for oy := 0; oy < conv.OutH; oy++ {
			for ox := 0; ox < conv.OutW; ox++ {
				o := (oc*conv.OutH+oy)*conv.OutW + ox
				for ic := 0; ic < conv.InC; ic++ {
					for ky := 0; ky < conv.KH; ky++ {
						iy := oy*conv.Stride + ky - conv.Pad
						if iy < 0 || iy >= conv.InH {
							continue
						}
						for kx := 0; kx < conv.KW; kx++ {
							ix := ox*conv.Stride + kx - conv.Pad
							if ix < 0 || ix >= conv.InW {
								continue
							}
							w := wRow[(ic*conv.KH+ky)*conv.KW+kx]
							m := g.QuantizeInto(w*scale, 1)
							if m != 0 {
								g.Add((ic*conv.InH+iy)*conv.InW+ix, o, m)
							}
						}
					}
				}
			}
		}
	}
	if err := n.mesh.Connect(g); err != nil {
		return err
	}

	// Per-filter bias, spread over the phase: the ANN bias b contributes
	// b·scale membrane units per step.
	biases := make([]int32, post.N)
	for oc := 0; oc < conv.Filters; oc++ {
		b := int32(roundF(conv.B[oc] * scale))
		for oy := 0; oy < conv.OutH; oy++ {
			for ox := 0; ox < conv.OutW; ox++ {
				biases[(oc*conv.OutH+oy)*conv.OutW+ox] = b
			}
		}
	}
	post.SetBiases(biases)
	return nil
}

func roundF(x float64) int64 {
	if x >= 0 {
		return int64(x + 0.5)
	}
	return -int64(-x + 0.5)
}
