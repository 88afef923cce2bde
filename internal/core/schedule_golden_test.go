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
// sample order, the batch boundaries, the update lag or the rounding
// streams moves it.
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

// TestTrainEpochScheduleGolden pins every epoch schedule TrainEpoch can
// run — online, mini-batch and pipelined, on both backends — to golden
// hashes of the trained weights and the test confusion after Train(2).
// Determinism and pool-width tests compare two runs of the same code, so
// a change to the realised order or the batch boundaries that hit both
// sides would pass them; this test would not.
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
	batch := func(o *Options) { o.Batch, o.Workers = 4, 2 }
	pipeline := func(o *Options) { o.Pipeline = 2 }
	cases := []struct {
		name    string
		backend Backend
		set     func(*Options)
		want    uint64
	}{
		{"fp/online", FP, online, 0xa665e96b80ad511f},
		{"fp/batch4-workers2", FP, batch, 0x449196cf0dcd2632},
		{"fp/pipeline2", FP, pipeline, 0xf463a8942d5516ca},
		{"chip/online", Chip, online, 0x2e8962efdacc2a32},
		{"chip/batch4-workers2", Chip, batch, 0xc7f32a833b588ee4},
		{"chip/pipeline2", Chip, pipeline, 0x2bfbb61559fd60e1},
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
