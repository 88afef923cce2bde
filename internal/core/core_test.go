package core

import (
	"testing"

	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
)

func smallOpts(b Backend) Options {
	return Options{
		Dataset:        dataset.MNIST,
		Backend:        b,
		Hidden:         []int{40},
		TrainSamples:   200,
		TestSamples:    100,
		PretrainEpochs: 1,
		Seed:           7,
	}
}

func TestBuildFP(t *testing.T) {
	m, err := Build(smallOpts(FP))
	if err != nil {
		t.Fatal(err)
	}
	if m.FPNetwork() == nil || m.ChipNetwork() != nil {
		t.Error("FP backend should build only the reference network")
	}
	if m.Conv.OutSize() != 200 {
		t.Errorf("conv out = %d", m.Conv.OutSize())
	}
	if len(m.TrainFeatures()) != 200 || len(m.TestFeatures()) != 100 {
		t.Error("featurised splits wrong size")
	}
}

func TestBuildChip(t *testing.T) {
	m, err := Build(smallOpts(Chip))
	if err != nil {
		t.Fatal(err)
	}
	if m.ChipNetwork() == nil || m.FPNetwork() != nil {
		t.Error("chip backend should build only the chip network")
	}
	if m.ChipNetwork().CoresUsed() == 0 {
		t.Error("chip network occupies no cores")
	}
}

func TestFPLearnsDigits(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := smallOpts(FP)
	opts.TrainSamples = 400
	m, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(2)
	acc := m.Evaluate().Accuracy()
	t.Logf("FP digits accuracy: %.3f", acc)
	if acc < 0.6 {
		t.Errorf("FP accuracy %.3f, want >= 0.6", acc)
	}
}

func TestChipLearnsDigits(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := smallOpts(Chip)
	opts.TrainSamples = 400
	m, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(2)
	acc := m.Evaluate().Accuracy()
	t.Logf("chip digits accuracy: %.3f", acc)
	if acc < 0.55 {
		t.Errorf("chip accuracy %.3f, want >= 0.55", acc)
	}
}

// The headline Table I relationship: the chip tracks the FP reference
// with a modest quantization gap.
func TestChipTracksFP(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := smallOpts(FP)
	opts.TrainSamples = 400
	fp, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	fp.Train(2)
	fpAcc := fp.Evaluate().Accuracy()

	opts.Backend = Chip
	ch, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	ch.Train(2)
	chAcc := ch.Evaluate().Accuracy()
	t.Logf("FP %.3f vs chip %.3f", fpAcc, chAcc)
	if chAcc < fpAcc-0.15 {
		t.Errorf("chip gap too large: FP %.3f, chip %.3f", fpAcc, chAcc)
	}
}

func TestBackendString(t *testing.T) {
	if FP.String() != "Python (FP)" || Chip.String() != "Loihi" {
		t.Error("backend strings wrong")
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.T != 64 || o.NeuronsPerCore != 10 || len(o.Hidden) != 1 || o.Hidden[0] != 100 {
		t.Errorf("defaults wrong: %+v", o)
	}
}

func TestModeFlowsThrough(t *testing.T) {
	opts := smallOpts(FP)
	opts.Mode = emstdp.FA
	m, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.FPNetwork().Config().Mode != emstdp.FA {
		t.Error("mode not propagated")
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{
		{"", FP},
		{"fp", FP},
		{"FP", FP},
		{"chip", Chip},
		{"Chip", Chip},
		{"loihi", Chip},
		{"LOIHI", Chip},
	} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseBackend("tpu"); err == nil {
		t.Error(`ParseBackend("tpu"): expected an error`)
	}
}
