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

// TestRunGolden pins the whole report: the placement table, occupancy,
// host I/O and the spike raster are deterministic. After an intended
// change, regenerate with
//
//	go run ./cmd/loihi-info > cmd/loihi-info/testdata/default.golden
//	go run ./cmd/loihi-info -raster > cmd/loihi-info/testdata/raster.golden
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"raster.golden", []string{"-raster"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(&got, tc.args); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs\n--- got\n%s\n--- want\n%s", tc.golden, got.Bytes(), want)
		}
	}
}

// TestRunRejectsUnknownNames requires an unknown dataset or feedback
// mode to be a usage error (exit 2), not a silent default.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bp"},
		{"-dataset", "imagenet"},
	} {
		err := run(io.Discard, args)
		if !errors.As(err, &usageError{}) {
			t.Errorf("%s: run = %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}
