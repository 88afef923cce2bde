package main

import (
	"fmt"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/energy"
	"emstdp/internal/loihi"
	"emstdp/internal/trace"
)

// meshPhases maps the chip mesh's per-step sub-phase spans (the
// "mesh-phase" track loihi.Mesh records onto core.Options.Trace) to the
// per-layer metrics they are summed into.
var meshPhases = map[string]string{
	"route":          "loihi.route_ms",
	"deliver":        "loihi.deliver_ms",
	"update":         "loihi.update_ms",
	"learn-micro":    "loihi.learn_ms",
	"rotate-account": "loihi.account_ms",
}

// chipPhase is the chip_mesh phase: online training on the simulated
// chip, four dies on a 2×2 mesh with every population split across
// them. Each round trains a fresh model over the first cfg.chipTrain
// samples of the train split; the activity counters and mesh traffic
// of every round must equal the first round's. Modelled energy and
// time per sample come from them.
type chipPhase struct {
	b       *bench
	opts    core.Options
	r       *core.Realized
	m       *core.Model
	lat     [][]float64 // per round, per sample: TrainSample ms
	first   chipRound
	phaseNs map[string]int64 // mesh-phase span time summed over rounds
}

// chipRound is one chip training round's fingerprint.
type chipRound struct {
	counters loihi.Counters
	traffic  loihi.MeshTraffic
}

func (b *bench) newChipPhase(r *core.Realized) *chipPhase {
	return &chipPhase{b: b, opts: b.options(core.Chip), r: b.permuted(r), phaseNs: map[string]int64{}}
}

func (p *chipPhase) round() error {
	b, n := p.b, p.b.cfg.chipTrain
	var meshTk *trace.Track
	if b.traced {
		// A fresh tracer per round, its mesh-phase ring sized for the
		// round: every sample steps the board through two phases of T
		// steps, and every step records five sub-phase spans. Per-link
		// load samples are not summarised.
		tr := trace.New()
		meshTk = tr.Track("mesh-phase", 5*2*p.opts.Normalized().T*n+64)
		tr.Track("mesh-links", 1)
		p.opts.Trace = tr
	}
	if p.m != nil {
		p.m.Close()
	}
	m, err := core.BuildFrom(p.r, p.opts)
	if err != nil {
		return fmt.Errorf("building the chip model: %w", err)
	}
	p.m = m
	net := m.ChipNetwork()
	lat := make([]float64, 0, n)
	for _, s := range m.TrainFeatures()[:n] {
		t0 := time.Now()
		if b.traced {
			trainSpans(b.chipTk, net, s)
		} else {
			m.TrainSample(s.X, s.Y)
		}
		lat = append(lat, ms(time.Since(t0).Nanoseconds()))
	}
	p.lat = append(p.lat, lat)
	b.rep.attempted += n
	got := chipRound{net.Counters(), net.Mesh().Traffic()}
	if len(p.lat) == 1 {
		p.first = got
	} else {
		b.rep.check(got == p.first, "chip_mesh round %d: counters %+v, round 1 %+v", len(p.lat), got, p.first)
	}
	if b.traced {
		if d := meshTk.Dropped(); d > 0 {
			return fmt.Errorf("mesh-phase track dropped %d events", d)
		}
		for _, e := range meshTk.Events() {
			p.phaseNs[e.Name] += e.Dur
		}
	}
	return nil
}

// finish reports the phase's metrics and evaluates the last round's
// model on the test split.
func (p *chipPhase) finish() error {
	b, n := p.b, p.b.cfg.chipTrain
	defer p.m.Close()
	net := p.m.ChipNetwork()
	c, t := p.first.counters, p.first.traffic
	rep := energy.DefaultLoihi().AnalyzeMesh(c, t, net.CoresUsed(), net.MaxNeuronsPerCore(), n, true)
	b.rep.set("sim_uj_per_sample", rep.EnergyPerSampleJ*1e6)
	b.rep.set("sim_ms_per_sample", rep.TimeSeconds*1e3/float64(n))
	b.setTrain("chip_", p.lat)

	b.seen.ChipAccuracy = p.m.Evaluate().Accuracy()
	b.seen.Chip, b.seen.Traffic = c, t
	b.rep.attempted++

	if b.traced {
		chip, err := spanDurations(b.chipTk)
		if err != nil {
			return err
		}
		b.setTrainSpans("chipnet", chip)
		samples := float64(len(p.lat) * n)
		var hostNs int64
		for phase, metric := range meshPhases {
			b.rep.set(metric, ms(p.phaseNs[phase])/samples)
			hostNs += p.phaseNs[phase]
		}
		b.rep.set("loihi.host_ns_per_synaptic_event", float64(hostNs)/(float64(c.SynapticEvents)*float64(len(p.lat))))
		per := func(v int64) float64 { return float64(v) / float64(n) }
		b.rep.set("loihi.steps", per(c.Steps))
		b.rep.set("loihi.spikes", per(c.Spikes))
		b.rep.set("loihi.synaptic_events", per(c.SynapticEvents))
		b.rep.set("loihi.compartment_updates", per(c.CompartmentUpdates))
		b.rep.set("loihi.learning_ops", per(c.LearningOps))
		b.rep.set("loihi.host_transactions", per(c.HostTransactions))
		b.rep.set("loihi.cross_die_spikes", per(t.CrossDieSpikes))
		b.rep.set("loihi.spike_hops", per(t.SpikeHops))
		b.rep.set("loihi.stall_cycles", per(t.StallCycles))
		b.rep.set("loihi.max_link_load", float64(t.MaxLinkLoad))
		b.rep.set("loihi.cores_used", float64(net.CoresUsed()))
	}
	return nil
}
