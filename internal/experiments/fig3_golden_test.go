package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emstdp/internal/orchestrator"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// goldenScale is the small deterministic grid the golden file commits:
// both feedback modes, one packing, one single-die and one two-die
// column under the range partition.
func goldenScale() Scale {
	return Scale{
		EnergySamples: 3,
		PerCore:       []int{10},
		Chips:         []int{1, 2},
		Partition:     "range",
	}
}

// TestFig3CSVGolden pins the Fig-3 grid's machine-readable output —
// schema and values — against a committed golden file, so a refactor
// cannot silently change the reported columns, their order, or the
// deterministic measurement behind them. Regenerate deliberately with:
//
//	go test ./internal/experiments -run Fig3CSVGolden -update
//
// TestFig3CSVGoldenOrchestrated and TestFig3OrchestratedMatchesFlat
// hold the same file against shared-cache, warm and disk-warm runs at
// several pool widths.
func TestFig3CSVGolden(t *testing.T) {
	points, err := Fig3(goldenScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig3CSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "fig3_quick_golden.csv")
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
		t.Fatalf("Fig-3 CSV diverged from golden file %s.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is intentional, regenerate with -update.", path, got, want)
	}

	// Schema sanity independent of the committed values: header line and
	// column count per row.
	lines := strings.Split(strings.TrimSpace(string(got)), "\n")
	if lines[0] != Fig3CSVHeader {
		t.Fatalf("header %q != schema %q", lines[0], Fig3CSVHeader)
	}
	wantCols := len(strings.Split(Fig3CSVHeader, ","))
	if len(lines) != 1+len(points) {
		t.Fatalf("%d rows for %d points", len(lines)-1, len(points))
	}
	for i, line := range lines[1:] {
		if cols := len(strings.Split(line, ",")); cols != wantCols {
			t.Fatalf("row %d has %d columns, schema has %d", i, cols, wantCols)
		}
	}
}

// TestFig3CSVGoldenOrchestrated drives the same golden grid through a
// shared stage cache on a two-worker pool — cold, then warm — and
// requires the byte-exact CSV the default sweep committed.
func TestFig3CSVGoldenOrchestrated(t *testing.T) {
	path := filepath.Join("testdata", "fig3_quick_golden.csv")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run TestFig3CSVGolden with -update to create it): %v", err)
	}
	sc := goldenScale()
	sc.Cache = orchestrator.NewCache("")
	sc.Workers = 2
	for _, pass := range []string{"cold", "warm"} {
		points, err := Fig3(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFig3CSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s-cache orchestrated Fig-3 CSV diverged from golden file %s.\n--- got ---\n%s\n--- want ---\n%s",
				pass, path, buf.Bytes(), want)
		}
	}
}
