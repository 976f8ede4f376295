package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"snappif/internal/analysis/dataflow"
)

// A Finding is one analyzer diagnostic.
type Finding struct {
	// Analyzer names the rule that fired.
	Analyzer string `json:"analyzer"`
	// File is the position's file path (module-relative when possible).
	File string `json:"file"`
	// Line and Col locate the offending node, 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the violation.
	Message string `json:"message"`
	// Severity is "" for an error (fails the build) or "warning" for
	// advisory findings (radiusbound's over-declared radius): printed and
	// exported, but never failing the run.
	Severity string `json:"severity,omitempty"`
}

// String renders the vet-style "file:line:col: [analyzer] message" line.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Key is the finding's line-number-free identity used by the baseline
// file, stable across unrelated edits to the same file.
func (f Finding) Key() string {
	return fmt.Sprintf("%s\t%s\t%s", f.File, f.Analyzer, f.Message)
}

// An Analyzer is one whole-program rule.
type Analyzer struct {
	// Name is the short rule identifier printed in findings.
	Name string
	// Doc is the one-line description shown by `snapvet -list`.
	Doc string
	// Run reports every violation through pass.Report.
	Run func(pass *Pass)
}

// Analyzers returns the seven snapvet rules in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{guardpure, writelocal, detrange, hotalloc, radiusbound, obspure}
}

// Pass hands one analyzer the loaded program and its reporting sink.
type Pass struct {
	// Prog is the loaded module.
	Prog *Program

	ann      *annotations
	analyzer *Analyzer
	findings *[]Finding
	eng      *dataflow.Engine
	st       *simTypes
	stDone   bool
}

// Report records a finding at pos unless a `//snapvet:ok` annotation on
// the same or the preceding line suppresses it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(pos, "", format, args...)
}

// Warn records an advisory finding: printed and exported, never failing
// the run.
func (p *Pass) Warn(pos token.Pos, format string, args ...any) {
	p.report(pos, "warning", format, args...)
}

func (p *Pass) report(pos token.Pos, severity, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.ann.suppressed(position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		File:     p.relFile(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Severity: severity,
	})
}

// suppressedAt reports whether pos carries a `//snapvet:ok` suppression,
// for analyzers that must treat annotated sites as vouched-for rather
// than merely unreported (radiusbound, hotalloc's transitive audit).
func (p *Pass) suppressedAt(pos token.Pos) bool {
	return p.ann.suppressed(p.Prog.Fset.Position(pos))
}

// relFile makes file paths module-relative so findings and baselines are
// machine-independent.
func (p *Pass) relFile(file string) string {
	if p.Prog.ModuleDir == "" {
		return file
	}
	if rel, err := filepath.Rel(p.Prog.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// simTypes returns the model-type index, resolved on first use (nil when
// the module has no internal/sim).
func (p *Pass) simTypes() *simTypes {
	if !p.stDone {
		p.st = lookupSimTypes(p.Prog)
		p.stDone = true
	}
	return p.st
}

// engine returns the shared interprocedural dataflow engine, built on
// first use over every loaded package (fixture packages appended by
// RunPackage included). The simTypes index doubles as the engine's model;
// a nil *simTypes is a valid dataflow.Model that matches nothing.
func (p *Pass) engine() *dataflow.Engine {
	if p.eng == nil {
		pkgs := make([]*dataflow.Pkg, len(p.Prog.Packages))
		for i, pkg := range p.Prog.Packages {
			pkgs[i] = &dataflow.Pkg{Path: pkg.Path, Files: pkg.Files, Types: pkg.Pkg, Info: pkg.Info}
		}
		p.eng = dataflow.NewEngine(pkgs, p.simTypes())
	}
	return p.eng
}

// Run executes the given analyzers (all four when nil) over prog and
// returns the surviving findings sorted by position, including the
// annotation-hygiene findings (a `//snapvet:ok` without a reason is
// itself an error: the tree must carry zero unexplained suppressions).
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	ann := collectAnnotations(prog)
	var findings []Finding
	pass := &Pass{Prog: prog, ann: ann, findings: &findings}
	for _, a := range analyzers {
		pass.analyzer = a
		a.Run(pass)
	}
	findings = append(findings, ann.hygiene(pass)...)
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		if findings[i].Line != findings[j].Line {
			return findings[i].Line < findings[j].Line
		}
		if findings[i].Col != findings[j].Col {
			return findings[i].Col < findings[j].Col
		}
		return findings[i].Message < findings[j].Message
	})
	// Test variants re-analyze base declarations in a fresh universe;
	// identical findings (same position, analyzer, and message) collapse
	// to one.
	out := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// RunPackage is Run restricted to one package (the testdata harness):
// program-wide analyzers still see prog, but only findings positioned in
// pkg's files survive.
func RunPackage(prog *Program, pkg *Package, analyzers []*Analyzer) []Finding {
	saved := prog.Packages
	prog.Packages = append(append([]*Package(nil), saved...), pkg)
	defer func() { prog.Packages = saved }()
	all := Run(prog, analyzers)
	var out []Finding
	dirs := map[string]bool{filepath.ToSlash(pkg.Dir): true}
	for _, f := range all {
		abs := f.File
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(prog.ModuleDir, abs)
		}
		if dirs[filepath.ToSlash(filepath.Dir(abs))] {
			out = append(out, f)
		}
	}
	return out
}

// okMark is one `//snapvet:ok <reason>` suppression.
type okMark struct {
	reason string
	pos    token.Pos
}

// annotations indexes the tree's snapvet directives.
type annotations struct {
	// ok maps filename -> line -> suppression.
	ok map[string]map[int]*okMark
	// hotpath holds the functions annotated `//snapvet:hotpath`.
	hotpath map[*ast.FuncDecl]bool
	// coldpath holds the functions annotated `//snapvet:coldpath <reason>`:
	// callees hotalloc's transitive audit must not charge against their
	// hot-path callers (panic formatting, one-time growth). The reason is
	// mandatory, like snapvet:ok's.
	coldpath map[*ast.FuncDecl]*okMark
	// nilsafe holds the type names annotated `//snapvet:nilsafe`: obspure
	// proves their exported pointer-receiver methods' nil-receiver paths
	// effect- and allocation-free.
	nilsafe map[*ast.TypeSpec]bool
	// deterministic holds packages opting into detrange via a
	// `//snapvet:deterministic` file directive.
	deterministic map[string]bool
}

// The recognized comment directives.
const (
	okDirective       = "//snapvet:ok"
	hotpathDirective  = "//snapvet:hotpath"
	coldpathDirective = "//snapvet:coldpath"
	nilsafeDirective  = "//snapvet:nilsafe"
	detPkgDirective   = "//snapvet:deterministic"
)

// collectAnnotations scans every file's comments once.
func collectAnnotations(prog *Program) *annotations {
	ann := &annotations{
		ok:            make(map[string]map[int]*okMark),
		hotpath:       make(map[*ast.FuncDecl]bool),
		coldpath:      make(map[*ast.FuncDecl]*okMark),
		nilsafe:       make(map[*ast.TypeSpec]bool),
		deterministic: make(map[string]bool),
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			fileName := prog.Fset.Position(file.Pos()).Filename
			hotLines := make(map[int]bool)
			coldLines := make(map[int]*okMark)
			nilsafeLines := make(map[int]bool)
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					line := prog.Fset.Position(c.Pos()).Line
					switch {
					case strings.HasPrefix(text, okDirective):
						reason := strings.TrimSpace(strings.TrimPrefix(text, okDirective))
						marks := ann.ok[fileName]
						if marks == nil {
							marks = make(map[int]*okMark)
							ann.ok[fileName] = marks
						}
						marks[line] = &okMark{reason: reason, pos: c.Pos()}
					case strings.HasPrefix(text, hotpathDirective):
						hotLines[line] = true
					case strings.HasPrefix(text, coldpathDirective):
						reason := strings.TrimSpace(strings.TrimPrefix(text, coldpathDirective))
						coldLines[line] = &okMark{reason: reason, pos: c.Pos()}
					case strings.HasPrefix(text, nilsafeDirective):
						nilsafeLines[line] = true
					case strings.HasPrefix(text, detPkgDirective):
						ann.deterministic[pkg.Path] = true
					}
				}
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Doc != nil {
						for _, c := range d.Doc.List {
							text := strings.TrimSpace(c.Text)
							if strings.HasPrefix(text, coldpathDirective) {
								ann.coldpath[d] = &okMark{
									reason: strings.TrimSpace(strings.TrimPrefix(text, coldpathDirective)),
									pos:    c.Pos(),
								}
							} else if strings.HasPrefix(text, hotpathDirective) {
								ann.hotpath[d] = true
							}
						}
					}
					// A bare directive line immediately above the
					// declaration also counts (doc comment or not).
					declLine := prog.Fset.Position(d.Pos()).Line
					if hotLines[declLine-1] {
						ann.hotpath[d] = true
					}
					if m := coldLines[declLine-1]; m != nil {
						ann.coldpath[d] = m
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						marked := false
						for _, doc := range []*ast.CommentGroup{d.Doc, ts.Doc} {
							if doc == nil {
								continue
							}
							for _, c := range doc.List {
								if strings.HasPrefix(strings.TrimSpace(c.Text), nilsafeDirective) {
									marked = true
								}
							}
						}
						declLine := prog.Fset.Position(ts.Pos()).Line
						if nilsafeLines[declLine-1] {
							marked = true
						}
						if marked {
							ann.nilsafe[ts] = true
						}
					}
				}
			}
		}
	}
	return ann
}

// suppressed reports whether a finding at position is covered by an ok
// mark on the same or the immediately preceding line.
func (ann *annotations) suppressed(position token.Position) bool {
	marks := ann.ok[position.Filename]
	if marks == nil {
		return false
	}
	return marks[position.Line] != nil || marks[position.Line-1] != nil
}

// hygiene reports every `//snapvet:ok` or `//snapvet:coldpath` carrying
// no reason: suppressions must explain themselves.
func (ann *annotations) hygiene(pass *Pass) []Finding {
	var out []Finding
	for file, marks := range ann.ok {
		for line, m := range marks {
			if m.reason != "" {
				continue
			}
			position := pass.Prog.Fset.Position(m.pos)
			out = append(out, Finding{
				Analyzer: "annotation",
				File:     pass.relFile(file),
				Line:     line,
				Col:      position.Column,
				Message:  "snapvet:ok requires a reason (\"//snapvet:ok <why this is safe>\")",
			})
		}
	}
	for _, m := range ann.coldpath {
		if m.reason != "" {
			continue
		}
		position := pass.Prog.Fset.Position(m.pos)
		out = append(out, Finding{
			Analyzer: "annotation",
			File:     pass.relFile(position.Filename),
			Line:     position.Line,
			Col:      position.Column,
			Message:  "snapvet:coldpath requires a reason (\"//snapvet:coldpath <why this never runs per step>\")",
		})
	}
	return out
}

// ReadBaseline loads the grandfathered finding keys from path (one
// Finding.Key per line, '#' comments and blank lines ignored). A missing
// file is an empty baseline.
func ReadBaseline(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		base[line] = true
	}
	return base, sc.Err()
}

// WriteBaseline writes the findings' keys to path in a stable order.
func WriteBaseline(path string, findings []Finding) error {
	keys := make([]string, 0, len(findings))
	seen := make(map[string]bool)
	for _, f := range findings {
		k := f.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# snapvet baseline: grandfathered findings, one Finding.Key per line.\n")
	b.WriteString("# Regenerate with `go run ./cmd/snapvet -write-baseline ./...`.\n")
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// Filter splits findings into new ones and baselined ones.
// UpdateBaseline regenerates the baseline file at path from the current
// findings and reports the delta against whatever the file held before:
// keys newly grandfathered, keys whose findings no longer exist, and keys
// carried over. The write goes through WriteBaseline, so updating twice
// from the same tree is byte-for-byte stable.
func UpdateBaseline(path string, findings []Finding) (added, removed, kept int, err error) {
	old, err := ReadBaseline(path)
	if err != nil {
		return 0, 0, 0, err
	}
	now := make(map[string]bool, len(findings))
	for _, f := range findings {
		now[f.Key()] = true
	}
	for k := range now {
		if old[k] {
			kept++
		} else {
			added++
		}
	}
	for k := range old {
		if !now[k] {
			removed++
		}
	}
	return added, removed, kept, WriteBaseline(path, findings)
}

func Filter(findings []Finding, baseline map[string]bool) (fresh, old []Finding) {
	for _, f := range findings {
		if baseline[f.Key()] {
			old = append(old, f)
		} else {
			fresh = append(fresh, f)
		}
	}
	return fresh, old
}
