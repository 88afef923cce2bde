package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"emstdp/internal/dataset"
)

// tiny is a configuration small enough for a run to take a few
// seconds. It pins no fingerprint; the round-to-round, pool-versus-
// sequential and serve-versus-reference checks still run.
var tiny = config{
	dataset: dataset.MNIST, train: 40, test: 20, pretrainEpochs: 1,
	chipTrain: 3, serveTrains: 40, callers: 2, vectors: 4,
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSchemaMatchesBenchmarkFile pins the metric tables and workload
// names to BENCHMARK.json at the checkout root.
func TestSchemaMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbenchmark reports\n%v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nbenchmark reports\n%v", layer, perLayer)
	}
}

// TestTinyRuns runs the command at the tiny size, untraced and traced,
// and checks the result line: every metric of the mode, with its unit,
// from a run whose checks all passed.
func TestTinyRuns(t *testing.T) {
	workloads["tiny"] = tiny
	defer delete(workloads, "tiny")
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "tiny", "--seed", "7", "--seconds", "1", "--trace", mode.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", mode.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if !strings.HasPrefix(lines[0], "host {") {
			t.Errorf("--trace %s: first line %q is not the host fingerprint", mode.trace, lines[0])
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		var res resultOut
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("--trace %s: result line: %v", mode.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("--trace %s: correct %v attempted %d failed %d\n%s", mode.trace, res.Correct, res.Attempted, res.Failed, stderr.String())
		}
		if len(res.Metrics) != len(mode.defs) {
			t.Errorf("--trace %s: %d metrics, want %d", mode.trace, len(res.Metrics), len(mode.defs))
		}
		for _, d := range mode.defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s = %+v, want unit %s", mode.trace, d.name, m, d.unit)
			}
		}
	}
}

// TestFingerprintMismatchFailsRun pins that a run whose work differs
// from the pinned fingerprint reports itself incorrect.
func TestFingerprintMismatchFailsRun(t *testing.T) {
	cfg := tiny
	cfg.golden = &fingerprint{FPAccuracy: -1}
	rep, _, err := newBench(cfg, 1, time.Second, false).run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 1 || !strings.Contains(rep.mismatches[0], "pinned") {
		t.Fatalf("mismatches %q, want one fingerprint mismatch", rep.mismatches)
	}
}

// TestServeFinishPostsRemaining runs a single cycle, whose one serve
// slice posts only trainsPerSlice of the samples, so finish posts the
// rest: the run must still see every version cut and pass its checks.
func TestServeFinishPostsRemaining(t *testing.T) {
	cfg := tiny
	cfg.serveTrains = 2 * trainsPerSlice
	cfg.train = max(cfg.train, cfg.serveTrains)
	rep, _, err := newBench(cfg, 1, time.Millisecond, true).run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 0 || rep.failed != 0 {
		t.Fatalf("mismatches %q, failed %d", rep.mismatches, rep.failed)
	}
	if got := rep.values["serve.versions_cut"]; got != float64(cfg.serveTrains) {
		t.Fatalf("serve.versions_cut %v, want %d", got, cfg.serveTrains)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mnist", "--seconds", "0"},
		{"--workload", "mnist", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
