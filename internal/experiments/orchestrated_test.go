package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/metrics"
	"emstdp/internal/orchestrator"
)

// The sweep grids run only through the orchestrator, so each suite here
// checks them against a reference that shares no stage and no cache:
// Table I and the ablations against every cell computed on its own,
// Fig 3 against its committed golden CSV. Comparing pool widths or
// cache states only against each other would miss a cache-key
// collision (a canon that drops a field its stage reads, so two cells
// alias); such a reference does not.

// orchestrated returns sc with a shared cache, pool width and counters.
func orchestrated(sc Scale, cache *orchestrator.Cache, workers int, ctr *metrics.Counters) Scale {
	sc.Cache = cache
	sc.Workers = workers
	sc.Counters = ctr
	return sc
}

// fig3Golden returns the committed Fig-3 CSV (TestFig3CSVGolden -update
// regenerates it).
func fig3Golden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "fig3_quick_golden.csv"))
	if err != nil {
		t.Fatalf("reading golden file (run TestFig3CSVGolden with -update to create it): %v", err)
	}
	return want
}

// fig3CSV runs the golden grid under sc and returns its CSV bytes.
func fig3CSV(t *testing.T, sc Scale) []byte {
	t.Helper()
	pts, err := Fig3(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig3CSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFig3OrchestratedMatchesFlat is the conformance spec for the Fig-3
// grid: cold at pool widths 1 and 4, warm, and disk-warm from a fresh
// cache, the sweep must reproduce the committed golden CSV byte for
// byte, and the warm runs must issue zero tasks.
func TestFig3OrchestratedMatchesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	want := fig3Golden(t)
	sc := goldenScale()
	check := func(pass string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Fig-3 CSV diverged from the golden file.\n--- got ---\n%s\n--- want ---\n%s", pass, got, want)
		}
	}
	var cache *orchestrator.Cache
	for _, workers := range []int{1, 4} {
		cache = orchestrator.NewCache("")
		check("cold", fig3CSV(t, orchestrated(sc, cache, workers, nil)))
	}
	ctr := metrics.NewCounters()
	check("warm", fig3CSV(t, orchestrated(sc, cache, 4, ctr)))
	if got := ctr.Get("orchestrator.issued"); got != 0 {
		t.Fatalf("warm rerun issued %d tasks, want 0", got)
	}
	// Disk-spilled cache: a fresh process-equivalent cache over the same
	// directory must also reproduce the grid exactly.
	dir := t.TempDir()
	check("cold spill", fig3CSV(t, orchestrated(sc, orchestrator.NewCache(dir), 2, nil)))
	ctr = metrics.NewCounters()
	check("disk-warm", fig3CSV(t, orchestrated(sc, orchestrator.NewCache(dir), 2, ctr)))
	if got := ctr.Get("orchestrator.issued"); got != 0 {
		t.Fatalf("disk-warm rerun issued %d tasks, want 0", got)
	}
}

// ablationsFlat is the flat ablation reference: one core.Build model
// carries the feature splits, and every variant trains on them through
// runVariant.
func ablationsFlat(t *testing.T, sc Scale, seed uint64) []AblationResult {
	t.Helper()
	m, err := core.Build(core.Options{
		Dataset:        dataset.MNIST,
		Backend:        core.FP,
		TrainSamples:   sc.TrainSamples,
		TestSamples:    sc.TestSamples,
		PretrainEpochs: sc.PretrainEpochs,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []AblationResult
	for _, v := range ablationVariants() {
		cfg := ablationBaseConfig(m.Conv.OutSize(), m.DS.NumClasses, seed)
		v.apply(&cfg)
		acc := runVariant(m.TrainFeatures(), m.TestFeatures(), cfg, sc.Epochs)
		out = append(out, AblationResult{Study: v.study, Value: v.value, Accuracy: acc})
	}
	return out
}

// TestAblationsOrchestratedMatchesFlat checks the ablation grid against
// the flat reference at pool widths 1 and 4; the second run is warm and
// must issue nothing.
func TestAblationsOrchestratedMatchesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := tinyScale()
	flat := ablationsFlat(t, sc, 1)
	cache := orchestrator.NewCache("")
	for i, workers := range []int{1, 4} {
		ctr := metrics.NewCounters()
		got, err := Ablations(orchestrated(sc, cache, workers, ctr), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, flat) {
			t.Fatalf("workers=%d: ablations diverged from the flat reference:\n got %+v\nwant %+v", workers, got, flat)
		}
		if i > 0 && ctr.Get("orchestrator.issued") != 0 {
			t.Fatalf("warm rerun issued %d tasks, want 0", ctr.Get("orchestrator.issued"))
		}
	}
}

// table1Flat is the flat Table-I reference: every cell built, trained
// and evaluated on its own with core.Build.
func table1Flat(t *testing.T, sc Scale, seed uint64) []Table1Row {
	t.Helper()
	var rows []Table1Row
	for _, c := range table1Cells() {
		m, err := core.Build(table1Options(sc, seed, c))
		if err != nil {
			t.Fatal(err)
		}
		m.Train(sc.Epochs)
		rows = append(rows, Table1Row{Dataset: c.ds, Mode: c.mode, Backend: c.backend, Accuracy: m.Evaluate().Accuracy()})
		m.Close()
	}
	return rows
}

// TestTable1OrchestratedMatchesFlat runs the full 16-cell Table-I grid
// at tiny scale: per-dataset realize/pretrain prefixes shared across
// four cells each, ephemeral train checkpoints released after
// evaluation, and accuracies bit-identical to the flat reference at both
// pool widths.
func TestTable1OrchestratedMatchesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := tinyScale()
	flat := table1Flat(t, sc, 1)
	cache := orchestrator.NewCache("")
	for i, workers := range []int{1, 4} {
		ctr := metrics.NewCounters()
		rows, err := Table1(orchestrated(sc, cache, workers, ctr), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, flat) {
			t.Fatalf("workers=%d: Table I diverged from the flat reference:\n got %+v\nwant %+v", workers, rows, flat)
		}
		if i == 0 {
			// 4 datasets × (realize + pretrain) + 16 × (train + evaluate).
			if got := ctr.Get("orchestrator.issued"); got != 40 {
				t.Fatalf("cold run issued %d stages, want 40", got)
			}
			// Every train checkpoint is ephemeral and must be released.
			if got := ctr.Get("orchestrator.released"); got != 16 {
				t.Fatalf("cold run released %d checkpoints, want 16", got)
			}
		} else if got := ctr.Get("orchestrator.issued"); got != 0 {
			t.Fatalf("warm rerun issued %d tasks, want 0", got)
		}
	}
}
