package ann

import (
	"sort"

	"emstdp/internal/dataset"
	"emstdp/internal/rng"
	"emstdp/internal/tensor"
)

// ConvStack is the frozen convolutional feature extractor produced by
// offline pretraining: the paper's `5×5k×16c2s – 3×3k×8c2s` front end.
// After pretraining it is treated as read-only; Extract gives the ReLU
// feature map that feeds the on-chip dense layers.
type ConvStack struct {
	Conv1 *Conv2D
	Relu1 *ReLU
	Conv2 *Conv2D
	Relu2 *ReLU

	// A1, A2 are per-layer activation maxima recorded by Calibrate. They
	// are the weight–threshold balancing constants of the ANN→SNN
	// conversion: scaling layer l's weights by A_{l-1}/A_l makes every
	// spiking neuron's rate the activation normalised to [0,1].
	A1, A2 float64
}

// NewConvStack builds the paper's two-layer conv front end for an input of
// shape c×h×w.
func NewConvStack(r *rng.Source, c, h, w int) *ConvStack {
	conv1 := NewConv2D(r, c, h, w, 16, 5, 5, 2, 0)
	conv2 := NewConv2D(r, 16, conv1.OutH, conv1.OutW, 8, 3, 3, 2, 0)
	return &ConvStack{
		Conv1: conv1,
		Relu1: NewReLU(conv1.OutSize()),
		Conv2: conv2,
		Relu2: NewReLU(conv2.OutSize()),
	}
}

// OutSize returns the flattened feature dimension.
func (cs *ConvStack) OutSize() int { return cs.Conv2.OutSize() }

// Calibrate records the activation normalisers for the ANN→SNN rate
// conversion over the calibration images. A1 is the maximum conv1
// activation (no intermediate saturation, so spiking conv2 sees faithful
// inputs). A2 is a robust percentile of the positive conv2 activations:
// ReLU feature maps are sparse and cold, and normalising by the absolute
// maximum would leave almost every feature's firing rate near zero —
// far too little drive for the downstream spiking layers to integrate.
// Percentile normalisation (Rueckauer et al.'s robust weight
// normalisation, applied aggressively because these features feed a
// trainable layer rather than a fixed classifier) trades saturation of
// the hottest features for a usable rate range, and is applied
// identically in the full-precision and on-chip paths.
func (cs *ConvStack) Calibrate(imgs []*tensor.Tensor) {
	cs.A1 = 1e-9
	var positives []float64
	for _, img := range imgs {
		a1 := cs.Relu1.Forward(cs.Conv1.Forward(img))
		for _, v := range a1.Data {
			if v > cs.A1 {
				cs.A1 = v
			}
		}
		a2 := cs.Relu2.Forward(cs.Conv2.Forward(a1))
		for _, v := range a2.Data {
			if v > 0 {
				positives = append(positives, v)
			}
		}
	}
	if cs.A1 < 1e-6 {
		cs.A1 = 1
	}
	cs.A2 = percentile(positives, 0.85)
	if cs.A2 < 1e-6 {
		cs.A2 = 1
	}
}

// percentile returns the q-quantile (0..1) of xs, or 0 for empty input.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// NormalizedRates returns the conv features scaled to firing rates in
// [0,1] by the calibrated A2 — the input representation both the
// full-precision EMSTDP reference and the chip's dense layers consume.
func (cs *ConvStack) NormalizedRates(x *tensor.Tensor) []float64 {
	return cs.Rates(cs.Extract(x))
}

// Rates scales features f that Extract returned to firing rates in [0,1]
// by the calibrated A2.
func (cs *ConvStack) Rates(f *tensor.Tensor) []float64 {
	if cs.A2 == 0 {
		panic("ann: ConvStack not calibrated")
	}
	out := make([]float64, f.Len())
	for i, v := range f.Data {
		r := v / cs.A2
		if r > 1 {
			r = 1
		}
		out[i] = r
	}
	return out
}

// Extract runs the frozen stack, returning non-negative ReLU features.
func (cs *ConvStack) Extract(x *tensor.Tensor) *tensor.Tensor {
	return cs.Relu2.Forward(cs.Conv2.Forward(cs.Relu1.Forward(cs.Conv1.Forward(x))))
}

// PretrainConfig controls offline conv pretraining.
type PretrainConfig struct {
	Epochs int
	LR     float64
	Seed   uint64
}

// Pretrain trains a conv stack plus a throwaway dense head on the dataset
// with softmax cross-entropy, then discards the head — mirroring the
// paper's offline conv pretraining. Returns the frozen stack, the final
// training accuracy of the full offline model, and the stack's features
// of every training image (ds.Train order), which the accuracy pass
// extracts anyway: a caller needs no second pass over the split.
func Pretrain(ds *dataset.Dataset, cfg PretrainConfig) (*ConvStack, float64, []*tensor.Tensor) {
	r := rng.New(cfg.Seed)
	cs := NewConvStack(r, ds.C, ds.H, ds.W)
	head := NewDense(r, cs.OutSize(), ds.NumClasses)
	net := &Network{Layers: []Layer{cs.Conv1, cs.Relu1, cs.Conv2, cs.Relu2, head}}

	order := make([]int, len(ds.Train))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < cfg.Epochs; e++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			s := ds.Train[idx]
			net.TrainStep(s.Image, s.Label, cfg.LR)
		}
	}

	correct := 0
	feats := make([]*tensor.Tensor, len(ds.Train))
	for i, s := range ds.Train {
		feats[i] = cs.Extract(s.Image)
		if head.Forward(feats[i]).ArgMax() == s.Label {
			correct++
		}
	}
	acc := 0.0
	if len(ds.Train) > 0 {
		acc = float64(correct) / float64(len(ds.Train))
	}
	return cs, acc, feats
}
