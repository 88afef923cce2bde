package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// liveTestNames returns every Test/Fuzz/Benchmark function declared in a
// _test.go file under internal/.
func liveTestNames(t *testing.T) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("found no tests under internal/")
	}
	return names
}

// TestDocsAndCINameLiveTests keeps the prose and CI from naming tests
// that no longer exist: every Test… name ARCHITECTURE.md cites must
// prefix a live test, and every alternative of every `-run '…'` regex in
// the CI workflow must select one, as `go test -run` would. A renamed
// or deleted test otherwise leaves a race step silently running nothing.
func TestDocsAndCINameLiveTests(t *testing.T) {
	live := liveTestNames(t)

	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\bTest[A-Z0-9]\w*`).FindAllString(string(arch), -1)
	if len(cited) == 0 {
		t.Fatal("ARCHITECTURE.md cites no tests: the check proves nothing")
	}
	for _, name := range cited {
		found := false
		for _, l := range live {
			found = found || strings.HasPrefix(l, name)
		}
		if !found {
			t.Errorf("ARCHITECTURE.md cites %s, which names no test under internal/", name)
		}
	}

	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runs := regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(string(ci), -1)
	if len(runs) == 0 {
		t.Fatal("ci.yml has no -run patterns: the check proves nothing")
	}
	for _, run := range runs {
		for _, alt := range strings.Split(run[1], "|") {
			if alt == "^$" {
				continue // the "run no tests" idiom of a bench-only step
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml -run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, l := range live {
				found = found || re.MatchString(l)
			}
			if !found {
				t.Errorf("ci.yml -run '%s': alternative %q matches no test under internal/", run[1], alt)
			}
		}
	}
}
