package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's schema: BENCHMARK.json lists the same names
// and units, which the self-test checks.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"accuracy", "ratio"},
	{"train_best_per_s", "1/s"},
	{"train_ms_best_p50", "ms"},
	{"eval_samples_per_s", "1/s"},
	{"chip_train_best_per_s", "1/s"},
	{"chip_train_ms_best_p50", "ms"},
	{"sim_uj_per_sample", "uJ"},
	{"sim_ms_per_sample", "sim_ms"},
	{"classify_best_per_s", "1/s"},
	{"classify_ms_best_p50", "ms"},
	{"classify_ms_best_p90", "ms"},
}

// perLayer are the metrics a traced run reports (--trace 1).
var perLayer = []metricDef{
	{"core.realize_dataset_s", "s"},
	{"core.pretrain_s", "s"},
	{"core.build_from_s", "s"},
	{"emstdp.program_us", "us"},
	{"emstdp.run_phases_us", "us"},
	{"emstdp.apply_us", "us"},
	{"emstdp.predict_us", "us"},
	{"emstdp.spikes_per_sample", "count"},
	{"engine.evaluate_ms", "ms"},
	{"engine.predict_ms", "ms"},
	{"engine.snapshot_us", "us"},
	{"chipnet.program_us", "us"},
	{"chipnet.run_phases_us", "us"},
	{"chipnet.apply_us", "us"},
	{"loihi.route_ms", "ms"},
	{"loihi.deliver_ms", "ms"},
	{"loihi.update_ms", "ms"},
	{"loihi.learn_ms", "ms"},
	{"loihi.account_ms", "ms"},
	{"loihi.host_ns_per_synaptic_event", "ns"},
	{"loihi.steps", "count"},
	{"loihi.spikes", "count"},
	{"loihi.synaptic_events", "count"},
	{"loihi.compartment_updates", "count"},
	{"loihi.learning_ops", "count"},
	{"loihi.host_transactions", "count"},
	{"loihi.cross_die_spikes", "count"},
	{"loihi.spike_hops", "count"},
	{"loihi.stall_cycles", "count"},
	{"loihi.max_link_load", "count"},
	{"loihi.cores_used", "count"},
	{"serve.classify_per_s", "1/s"},
	{"serve.classify_ms_p50", "ms"},
	{"serve.classify_ms_p90", "ms"},
	{"serve.batch_fill", "count"},
	{"serve.coalesced_share", "ratio"},
	{"serve.predict_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.train_apply_ms", "ms"},
	{"serve.versions_cut", "count"},
	{"serve.train_rejected", "count"},
	{"stream.stalls", "count"},
	{"stream.stalled_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// report collects one run's measurements and checks.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	// mismatches lists every failed correctness check; any entry makes
	// the run incorrect.
	mismatches []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// writeResult prints the result line: every metric of defs, which the
// run must have measured.
func (r *report) writeResult(w io.Writer, defs []metricDef) error {
	out := resultOut{
		Correct:   len(r.mismatches) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
