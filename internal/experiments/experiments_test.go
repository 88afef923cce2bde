package experiments

import (
	"bytes"
	"strings"
	"testing"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale() Scale {
	return Scale{TrainSamples: 120, TestSamples: 60, Epochs: 1, PretrainEpochs: 1, EnergySamples: 4}
}

func TestTable2StructureAndOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := Table2(tinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var loihi, cpu Table2Row
	for _, r := range rows {
		switch r.Platform {
		case "Loihi":
			loihi = r
		case "i7 8700":
			cpu = r
		}
	}
	// The headline orderings of Table II.
	if loihi.Train.PowerWatts >= cpu.Train.PowerWatts/10 {
		t.Errorf("Loihi train power %.3f W not orders below CPU %.0f W",
			loihi.Train.PowerWatts, cpu.Train.PowerWatts)
	}
	if loihi.Train.EnergyPerSampleJ >= cpu.Train.EnergyPerSampleJ {
		t.Error("Loihi train energy should beat CPU")
	}
	if loihi.Train.FPS >= cpu.Train.FPS {
		t.Error("Loihi throughput should be below CPU (10 kHz step ceiling)")
	}
	if loihi.Test.FPS <= loihi.Train.FPS {
		t.Error("Loihi testing should be faster than training (one phase)")
	}
	if loihi.Test.PowerWatts >= loihi.Train.PowerWatts {
		t.Error("inference deployment should draw less power (no backward path)")
	}

	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "Loihi") || !strings.Contains(buf.String(), "Energy") {
		t.Error("PrintTable2 output malformed")
	}
}

func TestFig3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	points, err := Fig3(tinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 {
		t.Fatalf("points = %d, want 2 modes x 6 packings", len(points))
	}
	byMode := map[emstdp.FeedbackMode][]Fig3Point{}
	for _, p := range points {
		byMode[p.Mode] = append(byMode[p.Mode], p)
	}
	for mode, ps := range byMode {
		for i := 1; i < len(ps); i++ {
			if ps[i].Cores > ps[i-1].Cores {
				t.Errorf("%v: cores increased with packing", mode)
			}
			if ps[i].TimeFor10k < ps[i-1].TimeFor10k {
				t.Errorf("%v: time decreased with packing", mode)
			}
			if ps[i].PowerWatts > ps[i-1].PowerWatts+1e-9 {
				t.Errorf("%v: power increased with packing", mode)
			}
		}
	}
	// FA uses more cores than DFA at the same packing (the relay pair).
	for i := range byMode[emstdp.FA] {
		fa, dfa := byMode[emstdp.FA][i], byMode[emstdp.DFA][i]
		if fa.Cores < dfa.Cores {
			t.Errorf("n/core=%d: FA cores %d < DFA cores %d", fa.NeuronsPerCore, fa.Cores, dfa.Cores)
		}
	}

	var buf bytes.Buffer
	PrintFig3(&buf, points)
	if !strings.Contains(buf.String(), "n/core") {
		t.Error("PrintFig3 output malformed")
	}
}

func TestFig4DropAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := tinyScale()
	sc.TrainSamples = 400
	sc.TestSamples = 150
	res, err := Fig4(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 16 {
		t.Fatalf("rounds = %d, want 16 (1 pretrain + 3x5)", len(res.Rounds))
	}
	if res.Baseline < 0.5 {
		t.Errorf("baseline %.3f too low", res.Baseline)
	}
	// Drop at introduction: the first round of at least two of the three
	// increments dips below the preceding round's step-2 accuracy.
	drops := 0
	for _, idx := range []int{1, 6, 11} {
		if res.Rounds[idx].AfterStep1 < res.Rounds[idx-1].AfterStep2 {
			drops++
		}
	}
	if drops < 2 {
		t.Errorf("expected accuracy drops at class introductions, got %d/3", drops)
	}
	// Recovery: each increment's final round beats its first round.
	for _, lo := range []int{1, 6, 11} {
		first, last := res.Rounds[lo], res.Rounds[lo+4]
		if last.AfterStep2 < first.AfterStep1-0.08 {
			t.Errorf("increment at round %d never recovered: %.3f -> %.3f",
				lo, first.AfterStep1, last.AfterStep2)
		}
	}

	var buf bytes.Buffer
	PrintFig4(&buf, res)
	if !strings.Contains(buf.String(), "baseline") {
		t.Error("PrintFig4 output malformed")
	}
}

// Table1 on a tiny scale: structure and the FP-vs-chip sanity relation on
// the easiest dataset. The accuracy ordering across datasets is left to
// the full-scale run (-scale full); tiny runs are too noisy to assert
// it.
func TestTable1TinyStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var rows []Table1Row
	for _, mode := range []emstdp.FeedbackMode{emstdp.DFA} {
		for _, backend := range []core.Backend{core.Chip, core.FP} {
			m, err := core.Build(core.Options{
				Dataset:        dataset.MNIST,
				Backend:        backend,
				Mode:           mode,
				TrainSamples:   300,
				TestSamples:    120,
				PretrainEpochs: 1,
				Seed:           1,
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Train(1)
			rows = append(rows, Table1Row{Dataset: dataset.MNIST, Mode: mode, Backend: backend,
				Accuracy: m.Evaluate().Accuracy()})
		}
	}
	for _, r := range rows {
		t.Logf("%v %v %v: %.3f", r.Dataset, r.Mode, r.Backend, r.Accuracy)
		if r.Accuracy < 0.4 {
			t.Errorf("%v/%v accuracy %.3f too low", r.Mode, r.Backend, r.Accuracy)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "MNIST") {
		t.Error("PrintTable1 output malformed")
	}
}
