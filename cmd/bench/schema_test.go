package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file from the current schema")

// goldenReport builds a fully-populated v8 report with fixed synthetic
// values: every field the emitter can write appears once, so the golden
// file pins the complete wire schema — field names, JSON key order,
// omitempty behaviour — not any measured number.
func goldenReport() Report {
	return Report{
		Schema:     "emstdp-bench/v8",
		GoMaxProcs: 2,
		NumCPU:     2,
		Dataset:    "MNIST",
		Backend:    "Python (FP)",
		Mode:       "DFA",
		Seed:       3,
		TrainN:     400,
		TestN:      200,
		Results: []Result{
			{
				Name: "train_online_sequential", Workers: 1, Batch: 1, Samples: 400,
				NsPerOp: 1000000, SamplesPerSec: 1000, Accuracy: 0.75, Protocol: "online",
			},
			{
				Name: "train_batched_parallel", Workers: 2, Batch: 8, Samples: 400,
				NsPerOp: 500000, SamplesPerSec: 2000, Accuracy: 0.5, Protocol: "batched",
			},
			{
				Name: "train_pipelined", Workers: 1, Batch: 1, Samples: 400,
				NsPerOp: 600000, SamplesPerSec: 1666.6, Accuracy: 0.75,
				Protocol: "pipelined", Pipeline: 2,
			},
			{
				Name: "train_stream", Workers: 1, Batch: 1, Samples: 400,
				NsPerOp: 1100000, SamplesPerSec: 909.1, Accuracy: 0.75, Protocol: "online",
				Window: 256, HeapBytes: 5000000, StreamStalls: 3, StreamStalledNs: 120000,
			},
			{
				Name: "sweep_flat", Workers: 2, Batch: 1, Samples: 12,
				NsPerOp: 200000000, SamplesPerSec: 5,
			},
			{
				Name: "sweep_orchestrated_cold", Workers: 2, Batch: 1, Samples: 12,
				NsPerOp: 180000000, SamplesPerSec: 5.6,
			},
			{
				Name: "sweep_orchestrated", Workers: 2, Batch: 1, Samples: 12,
				NsPerOp: 1000000, SamplesPerSec: 1000,
			},
			{
				Name: "mesh_traffic_torus", Workers: 1, Batch: 1, Samples: 100,
				NsPerOp: 2000000, SamplesPerSec: 500, Protocol: "online",
				Topology: "torus", Chips: 4,
				MeshSpikes: 12000, MeshHops: 18000, MeshStalls: 250, MeshMaxLinkLoad: 96,
			},
		},
		TrainSpeedup:      2.0,
		PipelineSpeedup:   1.6667,
		EvalSpeedup:       1.9,
		StreamOverheadPct: 10.0,
		AsyncEvalSavedPct: 9.5,
		SweepSpeedup:      200.0,
	}
}

// TestBenchSchemaGolden pins the committed BENCH_*.json wire format
// against a golden file: a field rename, reorder, type change or a
// silently dropped omitempty would fail here instead of breaking
// BENCH_N-to-BENCH_N+1 comparisons downstream. Regenerate deliberately
// with:
//
//	go test ./cmd/bench -run BenchSchemaGolden -update
func TestBenchSchemaGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenReport(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "bench_v8_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bench JSON schema diverged from golden file %s.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is intentional, bump the schema version and regenerate with -update.", path, got, want)
	}
}

// TestBenchSchemaOmitsEmptyOptionals pins the omitempty contract: rows
// that don't measure accuracy, streaming or pipelining must not emit
// those keys, so downstream consumers can key on presence.
func TestBenchSchemaOmitsEmptyOptionals(t *testing.T) {
	b, err := json.Marshal(Result{Name: "evaluate_sequential", Workers: 1, Batch: 1, Samples: 10, NsPerOp: 1, SamplesPerSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"accuracy", "protocol", "pipeline", "window", "heap_bytes", "stream_stalls", "stream_stalled_ns",
		"topology", "chips", "mesh_spikes", "mesh_hops", "mesh_stalls", "mesh_max_link_load"} {
		if bytes.Contains(b, []byte(`"`+key+`"`)) {
			t.Fatalf("zero-valued optional %q leaked into the wire format: %s", key, b)
		}
	}
}
