package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"emstdp/internal/dataset"
	"emstdp/internal/metrics"
)

// scheduleHash folds a trained model's weight bits and a confusion
// matrix's cells into one FNV-64a value: any change to the realised
// sample order or the rounding streams moves it.
func scheduleHash(m *Model, cm *metrics.Confusion) uint64 {
	h := fnv.New64a()
	var b [8]byte
	if n := m.FPNetwork(); n != nil {
		for i := 0; i < n.NumLayers(); i++ {
			for _, w := range n.Layer(i).W {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
				h.Write(b[:])
			}
		}
	} else {
		n := m.ChipNetwork()
		for i := 0; i < n.NumPlasticLayers(); i++ {
			for _, w := range n.Plastic(i).W {
				h.Write([]byte{byte(w)})
			}
		}
	}
	for _, c := range cm.Cells {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTrainEpochScheduleGolden pins TrainEpoch's online schedule on
// both backends (and with the conv stack on chip) to golden hashes of
// the trained weights and the test confusion after Train(2).
// Determinism and pool-width tests compare two runs of the same code, so
// a change to the realised order that hit both sides would pass them;
// this test would not.
func TestTrainEpochScheduleGolden(t *testing.T) {
	base := Options{
		Dataset:        dataset.MNIST,
		Hidden:         []int{40},
		TrainSamples:   60,
		TestSamples:    30,
		PretrainEpochs: 1,
		Seed:           3,
	}
	shared := Realize(base)

	online := func(*Options) {}
	cases := []struct {
		name    string
		backend Backend
		set     func(*Options)
		want    uint64
	}{
		{"fp/online", FP, online, 0xa665e96b80ad511f},
		{"chip/online", Chip, online, 0x2e8962efdacc2a32},
		{"chip/conv-on-chip", Chip, func(o *Options) { o.ConvOnChip = true }, 0x6dd40e567297d33c},
	}
	for _, c := range cases {
		opts := base
		c.set(&opts)
		opts.Backend = c.backend
		m, err := BuildFrom(shared, opts)
		if err != nil {
			t.Fatal(err)
		}
		m.Train(2)
		got := scheduleHash(m, m.Evaluate())
		m.Close()
		if got != c.want {
			t.Errorf("%s: schedule hash %#x, want %#x", c.name, got, c.want)
		}
	}
}
