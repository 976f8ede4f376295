package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loaded module is shared across tests: loading type-checks every
// module package once (~the cost of go vet), and RunPackage's temporary
// append keeps testdata packages out of each other's way.
var (
	loadOnce sync.Once
	loaded   *Program
	loadErr  error

	loadTestsOnce sync.Once
	loadedTests   *Program
	loadTestsErr  error
)

func loadProg(t *testing.T) *Program {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = Load("../..") })
	if loadErr != nil {
		t.Fatalf("Load: %v", loadErr)
	}
	return loaded
}

// loadTestProg loads the module with test variants: every *_test.go file
// (internal and external test packages) joins the program, re-type-checked
// per test-binary universe the way `go list -deps -test` reports them.
func loadTestProg(t *testing.T) *Program {
	t.Helper()
	loadTestsOnce.Do(func() { loadedTests, loadTestsErr = LoadTests("../..") })
	if loadTestsErr != nil {
		t.Fatalf("LoadTests: %v", loadTestsErr)
	}
	return loadedTests
}

// wantExp is one `// want "regexp"` expectation in a testdata file.
type wantExp struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// A want pattern is quoted with backticks (the usual, regexp-friendly
// form) or double quotes.
var quotedRE = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

// parseWants extracts the `// want "..."` expectations from a loaded
// package. A want comment holds one or more quoted regexps, each matching
// one finding reported on that line.
func parseWants(t *testing.T, prog *Program, pkg *Package) []*wantExp {
	t.Helper()
	var out []*wantExp
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				rel, err := filepath.Rel(prog.ModuleDir, pos.Filename)
				if err != nil {
					rel = pos.Filename
				}
				matches := quotedRE.FindAllStringSubmatch(c.Text[idx:], -1)
				if len(matches) == 0 {
					t.Errorf("%s:%d: want comment with no quoted regexp", rel, pos.Line)
					continue
				}
				for _, m := range matches {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", rel, pos.Line, pat, err)
						continue
					}
					out = append(out, &wantExp{file: filepath.ToSlash(rel), line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// runWantTest loads testdata/src/<name>, runs the analyzers over it, and
// checks the findings against the `// want` comments exactly: every
// finding needs a matching expectation on its line, and every expectation
// must be consumed.
func runWantTest(t *testing.T, name string, analyzers []*Analyzer) {
	prog := loadProg(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := prog.LoadDir(dir, prog.ModulePath+"/internal/analysis/testdata/src/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	findings := RunPackage(prog, pkg, analyzers)
	wants := parseWants(t, prog, pkg)

	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestGuardpure(t *testing.T)   { runWantTest(t, "guardpure", []*Analyzer{guardpure}) }
func TestWritelocal(t *testing.T)  { runWantTest(t, "writelocal", []*Analyzer{writelocal}) }
func TestDetrange(t *testing.T)    { runWantTest(t, "detrange", []*Analyzer{detrange}) }
func TestHotalloc(t *testing.T)    { runWantTest(t, "hotalloc", []*Analyzer{hotalloc}) }
func TestRadiusbound(t *testing.T) { runWantTest(t, "radiusbound", []*Analyzer{radiusbound}) }
func TestObspure(t *testing.T)     { runWantTest(t, "obspure", []*Analyzer{obspure}) }

// TestAnnotationHygiene checks that a `//snapvet:ok` without a reason is
// itself reported, even with no analyzer selected — suppressions must
// explain themselves.
func TestAnnotationHygiene(t *testing.T) {
	prog := loadProg(t)
	pkg, err := prog.LoadDir(filepath.Join("testdata", "src", "annotations"),
		prog.ModulePath+"/internal/analysis/testdata/src/annotations")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	findings := RunPackage(prog, pkg, []*Analyzer{})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "annotation" || !strings.Contains(f.Message, "requires a reason") {
		t.Errorf("unexpected hygiene finding: %s", f)
	}
}

// TestTreeClean is the repo's own conformance gate in test form: the
// current tree — *_test.go files included — must be analyzer-clean without
// any baseline.
func TestTreeClean(t *testing.T) {
	prog := loadTestProg(t)
	findings := Run(prog, nil)
	for _, f := range findings {
		t.Errorf("tree not analyzer-clean: %s", f)
	}
}

// TestDetrangeTarget pins the engine-package gate: exact matches, nested
// subpackages, and the cmd/ tools are in; siblings with a shared prefix
// are out.
func TestDetrangeTarget(t *testing.T) {
	for rel, want := range map[string]bool{
		"internal/sim":       true,
		"internal/sim/sub":   true,
		"internal/core":      true,
		"internal/simulator": false,
		"internal/analysis":  false,
		"cmd/pifsim":         true,
		"cmdlet":             false,
		"":                   false,
	} {
		if got := detrangeTarget(rel); got != want {
			t.Errorf("detrangeTarget(%q) = %v, want %v", rel, got, want)
		}
	}
}

// TestBaselineRoundTrip checks Write/Read/Filter agree on the key format
// and that keys are line-number-free (stable across unrelated edits).
func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		{Analyzer: "detrange", File: "internal/sim/a.go", Line: 10, Col: 2, Message: "range over a map"},
		{Analyzer: "hotalloc", File: "internal/core/b.go", Line: 3, Col: 1, Message: "calls make"},
		{Analyzer: "hotalloc", File: "internal/core/b.go", Line: 99, Col: 1, Message: "calls make"}, // same key as above
	}
	path := filepath.Join(t.TempDir(), ".snapvet.baseline")
	if err := WriteBaseline(path, findings); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	base, err := ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	if len(base) != 2 {
		t.Fatalf("baseline has %d keys, want 2 (line-free dedup): %v", len(base), base)
	}
	fresh, old := Filter(findings, base)
	if len(fresh) != 0 || len(old) != 3 {
		t.Errorf("Filter = %d fresh, %d old; want 0, 3", len(fresh), len(old))
	}
	moved := findings[0]
	moved.Line = 42 // unrelated edit shifts the line; the key must not care
	fresh, _ = Filter([]Finding{moved}, base)
	if len(fresh) != 0 {
		t.Errorf("line shift invalidated the baseline key: %v", fresh)
	}
	novel := Finding{Analyzer: "guardpure", File: "x.go", Message: "writes the configuration"}
	fresh, _ = Filter([]Finding{novel}, base)
	if len(fresh) != 1 {
		t.Errorf("novel finding not reported as fresh")
	}
}

// TestUpdateBaselineStable pins the -baseline-update contract: updating
// from an unchanged tree is a byte-for-byte no-op, and the delta counts
// track what actually changed.
func TestUpdateBaselineStable(t *testing.T) {
	findings := []Finding{
		{Analyzer: "detrange", File: "internal/sim/a.go", Line: 10, Col: 2, Message: "range over a map"},
		{Analyzer: "hotalloc", File: "internal/core/b.go", Line: 3, Col: 1, Message: "calls make"},
	}
	path := filepath.Join(t.TempDir(), ".snapvet.baseline")

	added, removed, kept, err := UpdateBaseline(path, findings)
	if err != nil {
		t.Fatalf("UpdateBaseline: %v", err)
	}
	if added != 2 || removed != 0 || kept != 0 {
		t.Errorf("first update = +%d -%d =%d, want +2 -0 =0", added, removed, kept)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	added, removed, kept, err = UpdateBaseline(path, findings)
	if err != nil {
		t.Fatalf("UpdateBaseline (again): %v", err)
	}
	if added != 0 || removed != 0 || kept != 2 {
		t.Errorf("idempotent update = +%d -%d =%d, want +0 -0 =2", added, removed, kept)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("baseline not byte-stable under re-update:\n--- first\n%s--- second\n%s", first, second)
	}

	added, removed, kept, err = UpdateBaseline(path, findings[:1])
	if err != nil {
		t.Fatalf("UpdateBaseline (shrunk): %v", err)
	}
	if added != 0 || removed != 1 || kept != 1 {
		t.Errorf("shrinking update = +%d -%d =%d, want +0 -1 =1", added, removed, kept)
	}
}

// TestReadBaselineMissing: a missing baseline file is an empty baseline,
// not an error — the shipped tree runs with no baseline at all.
func TestReadBaselineMissing(t *testing.T) {
	base, err := ReadBaseline(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(base) != 0 {
		t.Errorf("ReadBaseline(missing) = %v, %v; want empty, nil", base, err)
	}
}

// TestFindingString pins the vet-style rendering the CI log greps.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "detrange", File: "internal/sim/daemon.go", Line: 7, Col: 3, Message: "range over a map"}
	want := "internal/sim/daemon.go:7:3: [detrange] range over a map"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
