package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenArgs is a small run of each backend: a few hundred samples, one
// epoch and a narrow hidden layer keep both runs under a second.
var goldenArgs = []string{"-train", "200", "-test", "100", "-epochs", "1", "-hidden", "20"}

// TestRunGolden pins the whole report of a small online run on each
// backend: network shape, pretraining accuracy, chip deployment, the
// epoch's test accuracy and the per-class breakdown are deterministic.
// After an intended change, regenerate with
//
//	go run ./cmd/emstdp -backend fp -train 200 -test 100 -epochs 1 -hidden 20 > cmd/emstdp/testdata/fp.golden
//	go run ./cmd/emstdp -backend chip -train 200 -test 100 -epochs 1 -hidden 20 > cmd/emstdp/testdata/chip.golden
func TestRunGolden(t *testing.T) {
	for _, backend := range []string{"fp", "chip"} {
		golden := backend + ".golden"
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(&got, append([]string{"-backend", backend}, goldenArgs...)); err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs\n--- got\n%s\n--- want\n%s", golden, got.Bytes(), want)
		}
	}
}

// TestRunRejectsUnknownNames requires an unknown backend, feedback mode
// or dataset to be a usage error (exit 2), not a silent default.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-backend", "tpu"},
		{"-mode", "bp"},
		{"-dataset", "imagenet"},
	} {
		err := run(io.Discard, args)
		if !errors.As(err, &usageError{}) {
			t.Errorf("%s: run = %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}
