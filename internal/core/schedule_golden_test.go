package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
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
// run — online, mini-batch, pipelined, streamed and their compositions,
// on both backends — to golden hashes of the trained weights and the
// test confusion after Train(2). Determinism and pool-width tests
// compare two runs of the same code, so a change to the realised order
// or the batch boundaries that hit both sides would pass them; this
// test would not. It also pins the TrainCurve accuracies with AsyncEval
// off and on, and checks that a curve run leaves the same weights as
// Train.
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
	streamed := func(o *Options) { o.Stream, o.StreamWindow = true, 16 }
	streamPipeline := func(o *Options) { streamed(o); pipeline(o) }
	streamBatch := func(o *Options) { streamed(o); batch(o) }
	cases := []struct {
		name    string
		backend Backend
		set     func(*Options)
		want    uint64
	}{
		{"fp/online", FP, online, 0xa665e96b80ad511f},
		{"fp/batch4-workers2", FP, batch, 0x449196cf0dcd2632},
		{"fp/pipeline2", FP, pipeline, 0xf463a8942d5516ca},
		{"fp/stream", FP, streamed, 0x71144a41fa7ab00c},
		{"fp/stream+pipeline2", FP, streamPipeline, 0xd09d92f5eb4bca0d},
		{"fp/stream+batch4-workers2", FP, streamBatch, 0x599029c26e31baf2},
		{"chip/online", Chip, online, 0x2e8962efdacc2a32},
		{"chip/batch4-workers2", Chip, batch, 0xc7f32a833b588ee4},
		{"chip/pipeline2", Chip, pipeline, 0x2bfbb61559fd60e1},
		{"chip/stream", Chip, streamed, 0x97e1a4c573a40661},
		{"chip/stream+pipeline2", Chip, streamPipeline, 0x29cccca441e0bfc3},
		{"chip/stream+batch4-workers2", Chip, streamBatch, 0x554e1f1a9fa9da0d},
		{"chip/conv-on-chip", Chip, func(o *Options) { o.ConvOnChip = true }, 0x6dd40e567297d33c},
	}
	build := func(t *testing.T, backend Backend, set func(*Options)) *Model {
		t.Helper()
		opts := base
		set(&opts)
		opts.Backend = backend
		m, err := BuildFrom(shared, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	trained := map[string]uint64{}
	for _, c := range cases {
		m := build(t, c.backend, c.set)
		m.Train(2)
		got := scheduleHash(m, m.Evaluate())
		trained[c.name] = got
		if got != c.want {
			t.Errorf("%s: schedule hash %#x, want %#x", c.name, got, c.want)
		}
	}

	curves := []struct {
		name    string
		backend Backend
		set     func(*Options)
		async   bool
		want    []float64
	}{
		{"fp/online", FP, online, false, []float64{0.13333333333333333, 0.36666666666666664}},
		{"fp/online", FP, online, true, []float64{0.13333333333333333, 0.36666666666666664}},
		{"fp/stream+batch4-workers2", FP, streamBatch, true, []float64{0.1, 0.26666666666666666}},
		{"chip/online", Chip, online, false, []float64{0.13333333333333333, 0.3333333333333333}},
		{"chip/online", Chip, online, true, []float64{0.13333333333333333, 0.3333333333333333}},
		{"chip/stream+batch4-workers2", Chip, streamBatch, true, []float64{0.16666666666666666, 0.2}},
	}
	for _, c := range curves {
		m := build(t, c.backend, func(o *Options) { c.set(o); o.AsyncEval = c.async })
		got, err := m.TrainCurve(2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s async=%v: curve %v, want %v", c.name, c.async, got, c.want)
		}
		if h := scheduleHash(m, m.Evaluate()); h != trained[c.name] {
			t.Errorf("%s async=%v: TrainCurve left schedule hash %#x, Train %#x", c.name, c.async, h, trained[c.name])
		}
	}
}
