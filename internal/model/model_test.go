package model

import (
	"bytes"
	"testing"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
)

func builtModel(t *testing.T, backend core.Backend) *core.Model {
	t.Helper()
	m, err := core.Build(core.Options{
		Dataset:        dataset.MNIST,
		Backend:        backend,
		Hidden:         []int{30},
		TrainSamples:   150,
		TestSamples:    80,
		PretrainEpochs: 1,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func trainedModel(t *testing.T, backend core.Backend) *core.Model {
	t.Helper()
	m := builtModel(t, backend)
	m.Train(1)
	return m
}

// Save → Load must reproduce the trained model's predictions exactly:
// same conv parameters, same dense weights, same dataset (procedural,
// seed-determined).
func testRoundTrip(t *testing.T, backend core.Backend) {
	t.Helper()
	m := trainedModel(t, backend)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions identical on every test sample.
	origCM := m.Evaluate()
	loadCM := loaded.Evaluate()
	if origCM.Accuracy() != loadCM.Accuracy() {
		t.Errorf("accuracy changed across save/load: %.4f -> %.4f",
			origCM.Accuracy(), loadCM.Accuracy())
	}
	for i := range origCM.Cells {
		if origCM.Cells[i] != loadCM.Cells[i] {
			t.Fatalf("confusion cell %d differs: %d vs %d", i, origCM.Cells[i], loadCM.Cells[i])
		}
	}
}

func TestRoundTripFP(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	testRoundTrip(t, core.FP)
}

func TestRoundTripChip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	testRoundTrip(t, core.Chip)
}

// A loaded model must remain trainable: continue online learning after
// restore (the checkpoint-resume workflow).
func TestLoadedModelContinuesTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	m := trainedModel(t, core.FP)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before := loaded.Evaluate().Accuracy()
	loaded.Train(2)
	after := loaded.Evaluate().Accuracy()
	if after < before-0.1 {
		t.Errorf("training after load degraded accuracy: %.3f -> %.3f", before, after)
	}
}

func TestLoadRejectsBadFormat(t *testing.T) {
	m := trainedModel(t, core.FP)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Corrupt: decode into snapshot, bump version, re-encode.
	var snap Snapshot
	if err := decode(&buf, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Format = 99
	var buf2 bytes.Buffer
	if err := encode(&buf2, &snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf2); err == nil {
		t.Error("expected format-version error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("expected decode error")
	}
}

// TestLoadRejectsMalformedSnapshot re-encodes saved snapshots with one
// field truncated: Load must return an error, neither panicking nor
// silently keeping the rebuilt skeleton's values for the missing part.
func TestLoadRejectsMalformedSnapshot(t *testing.T) {
	cases := []struct {
		name    string
		backend core.Backend
		mutate  func(*Snapshot)
	}{
		{"short ChipExps", core.Chip, func(s *Snapshot) { s.ChipExps = s.ChipExps[:len(s.ChipExps)-1] }},
		{"nil ChipExps", core.Chip, func(s *Snapshot) { s.ChipExps = nil }},
		{"short ConvB1", core.FP, func(s *Snapshot) { s.ConvB1 = s.ConvB1[:len(s.ConvB1)-1] }},
		{"short ConvB2", core.FP, func(s *Snapshot) { s.ConvB2 = s.ConvB2[:len(s.ConvB2)-1] }},
	}
	saved := map[core.Backend][]byte{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, ok := saved[tc.backend]
			if !ok {
				var buf bytes.Buffer
				if err := Save(&buf, builtModel(t, tc.backend)); err != nil {
					t.Fatal(err)
				}
				raw = buf.Bytes()
				saved[tc.backend] = raw
			}
			var snap Snapshot
			if err := decode(bytes.NewReader(raw), &snap); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&snap)
			var buf bytes.Buffer
			if err := encode(&buf, &snap); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			if _, err := Load(&buf); err == nil {
				t.Fatal("Load accepted a malformed snapshot")
			}
		})
	}
}
