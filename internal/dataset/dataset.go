// Package dataset synthesises the four evaluation datasets of the paper —
// MNIST, Fashion-MNIST, CIFAR-10 and MSTAR — as procedural generators with
// matched tensor shapes and a calibrated difficulty ordering.
//
// Substitution note: the build environment has no data
// files, so each dataset is replaced by a generator that preserves the
// properties the paper's evaluation depends on: input shape (28×28×1,
// 28×28×1, 32×32×3, 32×32×1), ten classes, and relative task difficulty
// MNIST > Fashion-MNIST > MSTAR > CIFAR-10 (easiest to hardest). The MSTAR
// generator reproduces the paper's preprocessing pipeline shape: targets
// are rendered into a larger SAR scene chip, centre-cropped and resized to
// 32×32, with multiplicative speckle noise.
package dataset

import (
	"fmt"
	"strings"

	"emstdp/internal/rng"
	"emstdp/internal/tensor"
)

// Kind identifies one of the four evaluation datasets.
type Kind int

const (
	MNIST Kind = iota
	FashionMNIST
	CIFAR10
	MSTAR
)

// String returns the paper's name for the dataset.
func (k Kind) String() string {
	switch k {
	case MNIST:
		return "MNIST"
	case FashionMNIST:
		return "Fashion-MNIST"
	case CIFAR10:
		return "CIFAR10"
	case MSTAR:
		return "MSTAR (10 class)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a dataset name as the CLIs and the serve API spell
// it, case-insensitively: mnist (also the empty name), fashion
// (fashion-mnist, fashionmnist), cifar10 (cifar-10) or mstar.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "", "mnist":
		return MNIST, nil
	case "fashion", "fashion-mnist", "fashionmnist":
		return FashionMNIST, nil
	case "cifar10", "cifar-10":
		return CIFAR10, nil
	case "mstar":
		return MSTAR, nil
	}
	return 0, fmt.Errorf("unknown dataset %q (want mnist, fashion, cifar10 or mstar)", name)
}

// Sample is one labelled image. Image is C×H×W with values in [0, 1].
type Sample struct {
	Image *tensor.Tensor
	Label int
}

// Dataset is a generated train/test corpus.
type Dataset struct {
	Kind       Kind
	C, H, W    int
	NumClasses int
	Train      []Sample
	Test       []Sample
}

// InputSize returns C*H*W.
func (d *Dataset) InputSize() int { return d.C * d.H * d.W }

// Shape returns (C, H, W) for the given dataset kind.
func Shape(k Kind) (c, h, w int) {
	switch k {
	case MNIST, FashionMNIST:
		return 1, 28, 28
	case CIFAR10:
		return 3, 32, 32
	case MSTAR:
		return 1, 32, 32
	default:
		panic(fmt.Sprintf("dataset: unknown kind %d", k))
	}
}

// Generate builds a dataset of nTrain training and nTest test samples with
// balanced classes, deterministically from seed.
func Generate(k Kind, nTrain, nTest int, seed uint64) *Dataset {
	c, h, w := Shape(k)
	d := &Dataset{Kind: k, C: c, H: h, W: w, NumClasses: 10}
	r := rng.New(seed)
	gen := generatorFor(k)
	d.Train = genSplit(gen, r.Split(), nTrain)
	d.Test = genSplit(gen, r.Split(), nTest)
	return d
}

// generator renders one sample of the given class.
type generator func(r *rng.Source, class int) *tensor.Tensor

func generatorFor(k Kind) generator {
	switch k {
	case MNIST:
		return genDigit
	case FashionMNIST:
		return genFashion
	case CIFAR10:
		return genCIFAR
	case MSTAR:
		return genMSTAR
	default:
		panic(fmt.Sprintf("dataset: unknown kind %d", k))
	}
}

// genSplit generates n samples with balanced, shuffled class labels.
func genSplit(gen generator, r *rng.Source, n int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		label := i % 10
		samples[i] = Sample{Image: gen(r, label), Label: label}
	}
	r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	return samples
}

// ClassCounts returns per-class sample counts for the training split.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, s := range d.Train {
		if s.Label >= 0 && s.Label < d.NumClasses {
			counts[s.Label]++
		}
	}
	return counts
}

// canvasToTensor copies a single-channel canvas into a 1×H×W tensor.
func canvasToTensor(c *Canvas) *tensor.Tensor {
	t := tensor.New(1, c.H, c.W)
	copy(t.Data, c.Pix)
	return t
}
