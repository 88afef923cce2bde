package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/emstdp"
	"emstdp/internal/metrics"
)

// fpPhase is the fp_online phase: the paper's online protocol on the FP
// backend. Each round trains a fresh model one sample at a time over
// the whole train split in storage order; evaluation passes over the
// test split run the latest round's model on the worker pool. Every
// round must reproduce the first round's phase-1 spikes and weights,
// every pass the first pass's confusion matrix, and the pool's answers
// must equal a sequential pass.
type fpPhase struct {
	b      *bench
	opts   core.Options
	r      *core.Realized // test split in seed order
	m      *core.Model    // the latest round's model
	lat    [][]float64    // per round, per sample: TrainSample ms
	passes []float64      // evaluation pass seconds
	first  fpRound
	cm0    *metrics.Confusion
}

// fpRound is one FP training round's fingerprint.
type fpRound struct {
	spikes  int64  // phase-1 spikes of every layer, summed over the round
	weights uint64 // hash of the trained weights and biases
}

func (b *bench) newFPPhase(r *core.Realized) *fpPhase {
	return &fpPhase{b: b, opts: b.options(core.FP), r: b.permuted(r)}
}

// train trains a fresh model over the train split.
func (p *fpPhase) train() error {
	b := p.b
	if p.m != nil {
		p.m.Close()
	}
	m, err := core.BuildFrom(p.r, p.opts)
	if err != nil {
		return fmt.Errorf("building the FP model: %w", err)
	}
	p.m = m
	net := m.FPNetwork()
	var got fpRound
	lat := make([]float64, 0, len(m.TrainFeatures()))
	for _, s := range m.TrainFeatures() {
		t0 := time.Now()
		if b.traced {
			trainSpans(b.fpTk, net, s)
		} else {
			m.TrainSample(s.X, s.Y)
		}
		lat = append(lat, ms(time.Since(t0).Nanoseconds()))
		got.spikes += phase1Spikes(net)
	}
	p.lat = append(p.lat, lat)
	b.rep.attempted += len(lat)
	got.weights = weightHash(net)
	if len(p.lat) == 1 {
		p.first = got
	} else {
		b.rep.check(got == p.first, "fp_online round %d: spikes/weights %+v, round 1 %+v", len(p.lat), got, p.first)
	}
	return nil
}

// evaluate evaluates the latest round's model for evalFor (at least one
// pass).
func (p *fpPhase) evaluate(evalFor time.Duration) {
	b, m := p.b, p.m
	deadline := time.Now().Add(evalFor)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		s := b.engTk.Begin()
		cm := m.Evaluate()
		b.engTk.End(s, "evaluate")
		p.passes = append(p.passes, time.Since(t0).Seconds())
		b.rep.attempted++
		if p.cm0 == nil {
			p.cm0 = cm
		} else {
			b.rep.check(slices.Equal(cm.Cells, p.cm0.Cells), "fp_online evaluation pass %d differs from pass 1", len(p.passes))
		}
	}
}

// finish reports the phase's metrics and checks the pool's answers
// against a sequential pass over the last round's model.
func (p *fpPhase) finish() error {
	b := p.b
	defer p.m.Close()
	b.setTrain("", p.lat)
	test := p.m.TestFeatures()
	b.rep.set("eval_samples_per_s", float64(len(test))/median(p.passes))
	b.rep.set("accuracy", p.cm0.Accuracy())

	net := p.m.FPNetwork()
	seq := metrics.NewConfusion(p.cm0.N)
	var spikes int64
	for _, s := range test {
		t := b.fpTk.Begin()
		pred := net.Predict(s.X)
		b.fpTk.End(t, "predict")
		spikes += phase1Spikes(net)
		seq.Observe(s.Y, pred)
	}
	b.rep.check(slices.Equal(seq.Cells, p.cm0.Cells), "fp_online: pool evaluation differs from sequential prediction")
	b.seen.FPAccuracy, b.seen.FPSpikes = p.cm0.Accuracy(), p.first.spikes

	if b.traced {
		fp, err := spanDurations(b.fpTk)
		if err != nil {
			return err
		}
		eng, err := spanDurations(b.engTk)
		if err != nil {
			return err
		}
		b.setTrainSpans("emstdp", fp)
		b.rep.set("emstdp.predict_us", median(fp["predict"])/1e3)
		b.rep.set("emstdp.spikes_per_sample", float64(spikes)/float64(len(test)))
		b.rep.set("engine.evaluate_ms", median(eng["evaluate"])/1e6)
	}
	return nil
}

// phase1Spikes sums the phase-1 spike counts of every layer from the
// network's most recent pass.
func phase1Spikes(net *emstdp.Network) int64 {
	var n int64
	for li := 0; li < net.NumLayers(); li++ {
		for _, c := range net.HiddenCounts(li) {
			n += int64(c)
		}
	}
	return n
}

func weightHash(net *emstdp.Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			u := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	for li := 0; li < net.NumLayers(); li++ {
		put(net.Layer(li).W)
		put(net.Layer(li).Bias)
	}
	return h.Sum64()
}
