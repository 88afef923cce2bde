package bench

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// liveTests returns every Test/Fuzz/Benchmark function declared in a
// _test.go file under internal/, keyed by the file's directory
// (internal/loihi).
func liveTests(t *testing.T) map[string][]string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	tests := map[string][]string{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			tests[dir] = append(tests[dir], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) == 0 {
		t.Fatal("found no tests under internal/")
	}
	return tests
}

// ciTestCommands returns every `go test` command in the workflow text.
// A line that begins with a flag, a ./ package path or && continues
// the command above it (a YAML folded block), and &&, || and ; end one.
func ciTestCommands(ci string) []string {
	cont := regexp.MustCompile(`^\s*(-\w|\./|&&)`)
	var logical []string
	for _, line := range strings.Split(ci, "\n") {
		if n := len(logical); n > 0 && cont.MatchString(line) {
			logical[n-1] += " " + strings.TrimSpace(line)
		} else {
			logical = append(logical, line)
		}
	}
	sep := regexp.MustCompile(`&&|\|\||;`)
	var cmds []string
	for _, line := range logical {
		for _, cmd := range sep.Split(line, -1) {
			if i := strings.Index(cmd, "go test "); i >= 0 {
				cmds = append(cmds, cmd[i:])
			}
		}
	}
	return cmds
}

// packageTests returns the live tests in the packages a go test
// pattern names: ./... for all of them, ./internal/x/... for x and
// the packages below it, ./internal/x/ for x alone.
func packageTests(live map[string][]string, pattern string) []string {
	dir, tree := strings.CutSuffix(pattern, "/...")
	dir = strings.TrimSuffix(strings.TrimPrefix(dir, "./"), "/")
	var names []string
	for d, tests := range live {
		if d == dir || tree && (dir == "." || strings.HasPrefix(d, dir+"/")) {
			names = append(names, tests...)
		}
	}
	return names
}

// repoDirRef matches a cmd/, internal/ or examples/ path in prose: a
// plain path (internal/engine/pipeline.go) or a brace list
// (cmd/{emstdp, serve}). A path that continues another one
// (perfbench/cmd/x) does not match.
var repoDirRef = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:cmd|internal|examples)/(?:\{[^}]*\}|[\w-]+(?:/[\w.-]+)*))`)

// benchSnapshot matches a cited BENCH_<n>.json snapshot file.
var benchSnapshot = regexp.MustCompile(`BENCH_(?:\d|<)`)

// checkRepoPaths fails for every cmd/, internal/ or examples/ path that
// doc names and the checkout does not have.
func checkRepoPaths(t *testing.T, doc string, text []byte) {
	t.Helper()
	refs := repoDirRef.FindAllSubmatch(text, -1)
	if len(refs) == 0 {
		t.Errorf("%s names no cmd/, internal/ or examples/ path: the check proves nothing", doc)
	}
	for _, m := range refs {
		ref := string(m[1])
		var paths []string
		if dir, list, ok := strings.Cut(ref, "/{"); ok {
			for _, name := range strings.Split(strings.TrimSuffix(list, "}"), ",") {
				if name = strings.TrimSpace(name); name != "..." {
					paths = append(paths, dir+"/"+name)
				}
			}
		} else {
			paths = append(paths, strings.TrimRight(strings.TrimSuffix(ref, "/..."), "."))
		}
		for _, p := range paths {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}
}

// mdCite matches a Markdown file name (ROADMAP.md, perfbench/README.md).
var mdCite = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// checkGoCommentDocs fails for every *.md file a Go comment in the
// checkout names that exists neither beside the Go file nor at the
// checkout root.
func checkGoCommentDocs(t *testing.T) {
	t.Helper()
	fset := token.NewFileSet()
	cites := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, group := range f.Comments {
			for _, name := range mdCite.FindAllString(group.Text(), -1) {
				cites++
				_, errBeside := os.Stat(filepath.Join(filepath.Dir(path), name))
				_, errRoot := os.Stat(name)
				if errBeside != nil && errRoot != nil {
					t.Errorf("%s: a comment cites %s, which does not exist", fset.Position(group.Pos()), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Error("no Go comment names a *.md file: the check proves nothing")
	}
}

// TestDocsAndCINameLiveTests keeps the prose and CI from naming tests,
// directories and files that no longer exist: every Test… name
// ARCHITECTURE.md cites must prefix a live test, every alternative of
// every `-run '…'` regex in the CI workflow must select one, as
// `go test -run` would, in the packages its own `go test` command
// lists, every cmd/, internal/ and examples/ path ARCHITECTURE.md and
// the verify skill name must exist, as must every `go run` target in
// CI, none of the three may cite a BENCH_<n>.json snapshot (perfbench
// and BENCHMARK.json are the one benchmark), and every *.md file a Go
// comment names must exist. A renamed or deleted test otherwise leaves
// a race step silently running nothing.
func TestDocsAndCINameLiveTests(t *testing.T) {
	live := liveTests(t)
	checkGoCommentDocs(t)

	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	skillPath := filepath.Join(".claude", "skills", "verify", "SKILL.md")
	skill, err := os.ReadFile(skillPath)
	if err != nil {
		t.Fatal(err)
	}
	checkRepoPaths(t, "ARCHITECTURE.md", arch)
	checkRepoPaths(t, skillPath, skill)
	cited := regexp.MustCompile(`\bTest[A-Z0-9]\w*`).FindAllString(string(arch), -1)
	if len(cited) == 0 {
		t.Fatal("ARCHITECTURE.md cites no tests: the check proves nothing")
	}
	for _, name := range cited {
		found := false
		for _, l := range packageTests(live, "./...") {
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
	goRuns := regexp.MustCompile(`go run (\S+)`).FindAllStringSubmatch(string(ci), -1)
	if len(goRuns) == 0 {
		t.Fatal("ci.yml has no go run targets: the check proves nothing")
	}
	for _, run := range goRuns {
		if _, err := os.Stat(run[1]); err != nil {
			t.Errorf("ci.yml runs go run %s, which does not exist", run[1])
		}
	}
	for doc, text := range map[string][]byte{"ARCHITECTURE.md": arch, skillPath: skill, "ci.yml": ci} {
		for _, cite := range benchSnapshot.FindAll(text, -1) {
			t.Errorf("%s cites %s…, a benchmark snapshot that no longer exists", doc, cite)
		}
	}

	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	runs := 0
	for _, cmd := range ciTestCommands(string(ci)) {
		run := runFlag.FindStringSubmatch(cmd)
		if run == nil {
			continue
		}
		runs++
		var selectable []string
		for _, field := range strings.Fields(cmd) {
			if field = strings.Trim(field, `"'`); strings.HasPrefix(field, "./") {
				selectable = append(selectable, packageTests(live, field)...)
			}
		}
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
			for _, l := range selectable {
				found = found || re.MatchString(l)
			}
			if !found {
				t.Errorf("ci.yml -run '%s': alternative %q matches no test in the packages its command lists", run[1], alt)
			}
		}
	}
	if runs == 0 {
		t.Fatal("ci.yml has no -run patterns: the check proves nothing")
	}
}
