package chipnet

import (
	"testing"

	"emstdp/internal/dvs"
	"emstdp/internal/rng"
)

func eventNet(t testing.TB, inSize, hidden, out int) *Network {
	cfg := DefaultConfig(inSize, hidden, out)
	cfg.SpikeInput = true
	cfg.Seed = 5
	// DVS streams are sparse (a few percent event density), far colder
	// than rate-coded frames: the first layer's init scales up to
	// integrate enough drive per phase, and the learning rate rises to
	// compensate for the small presynaptic trace counts.
	cfg.WInit = 4
	cfg.EtaLog2 = 2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// rateEvents builds a deterministic event train firing input i at rate
// rates[i] (evenly spaced), for cross-checking against bias coding.
func rateEvents(rates []float64, T int) EventTrain {
	acc := make([]float64, len(rates))
	events := make(EventTrain, T)
	for t := range events {
		mask := make([]bool, len(rates))
		for i, r := range rates {
			acc[i] += r
			if acc[i] >= 1 {
				acc[i]--
				mask[i] = true
			}
		}
		events[t] = mask
	}
	return events
}

// Spike-injected inputs at rate r must produce the same downstream
// counts as bias-driven inputs at rate r (one step of delivery skew
// tolerated): the two §III-D input paths are interchangeable.
func TestEventInputMatchesBiasInput(t *testing.T) {
	const in, out = 12, 3
	r := rng.New(1)
	rates := make([]float64, in)
	r.FillUniform(rates, 0.1, 0.9)

	evtNet := eventNet(t, in, 8, out)
	// The comparison network must share weights exactly: same seed and
	// the same init scaling the event helper applies.
	biasCfg := DefaultConfig(in, 8, out)
	biasCfg.Seed = 5
	biasCfg.WInit = 4
	biasCfg.EtaLog2 = 2
	biasNet, err := New(biasCfg)
	if err != nil {
		t.Fatal(err)
	}

	evtCounts := evtNet.CountsEvents(rateEvents(rates, evtNet.cfg.T))
	biasCounts := phase1Counts(biasNet, rates)
	for i := range evtCounts {
		d := evtCounts[i] - biasCounts[i]
		if d < -2 || d > 2 {
			t.Errorf("output %d: event counts %d vs bias counts %d", i, evtCounts[i], biasCounts[i])
		}
	}
}

// Training through the event path must learn the DVS gesture task well
// above chance.
func TestChipLearnsGesturesFromEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := dvs.DefaultConfig()
	ds := dvs.NewDataset(cfg, 320, 120, 3)
	net := eventNet(t, cfg.H*cfg.W, 64, int(dvs.NumGestures))

	for epoch := 0; epoch < 3; epoch++ {
		for _, s := range ds.Train {
			net.TrainSampleEvents(s.Events, int(s.Label))
		}
	}
	correct := 0
	for _, s := range ds.Test {
		if net.PredictEvents(s.Events) == int(s.Label) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.Test))
	t.Logf("chip DVS gesture accuracy: %.3f (chance %.3f)", acc, 1/float64(dvs.NumGestures))
	if acc < 0.5 {
		t.Errorf("gesture accuracy %.3f too low", acc)
	}
}

// The host-transaction asymmetry §III-D quantifies: event streams cost
// one transaction per spike, bias coding a constant few per sample.
func TestEventInputHostCost(t *testing.T) {
	cfg := dvs.DefaultConfig()
	s := dvs.Generate(cfg, dvs.SwipeRight, rng.New(2))
	net := eventNet(t, cfg.H*cfg.W, 16, int(dvs.NumGestures))
	net.ResetCounters()
	net.TrainSampleEvents(s.Events, 0)
	tx := net.Counters().HostTransactions
	// Two phases replay the stream, plus label and phase writes.
	want := int64(2*s.EventCount()) + 2
	if tx != want {
		t.Errorf("host transactions = %d, want %d (2x%d events + 2 writes)", tx, want, s.EventCount())
	}
}

func TestEventAPIValidation(t *testing.T) {
	net := eventNet(t, 4, 4, 2)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad mask size", func() {
		net.CountsEvents(EventTrain{make([]bool, 3)})
	})
	mustPanic("bad label", func() {
		net.TrainSampleEvents(EventTrain{make([]bool, 4)}, 9)
	})
	biasCfg := DefaultConfig(4, 2)
	biasNet, err := New(biasCfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("event API on bias net", func() {
		biasNet.CountsEvents(EventTrain{make([]bool, 4)})
	})
}
