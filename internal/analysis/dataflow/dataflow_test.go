package dataflow_test

// The engine's integration surface — the real sim/flat model over the
// whole module — is exercised by internal/analysis's fixture and
// tree-clean tests. These unit tests pin the core machinery in isolation
// on a synthetic package with a toy model, where every expectation is
// visible in ten lines of source: summary classification, transitive
// cleanliness, alloc reachability, and hop derivation and composition.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"snappif/internal/analysis/dataflow"
)

// toyModel maps the synthetic package onto the engine's model hooks:
// Config is the configuration, cfg[i] is a state read indexed by i, and
// neighbors(p) is the adjacency call.
type toyModel struct{}

func (toyModel) IsConfig(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		if p, isPtr := t.(*types.Pointer); isPtr {
			n, ok = p.Elem().(*types.Named)
		}
	}
	return ok && n.Obj().Name() == "Config"
}

func (toyModel) IsStateBox(types.Type) bool { return false }

func (m toyModel) StateIndex(info *types.Info, e ast.Expr) (ast.Expr, bool, bool) {
	ix, ok := e.(*ast.IndexExpr)
	if !ok || !m.IsConfig(info.TypeOf(ix.X)) {
		return nil, false, false
	}
	return ix.Index, false, true
}

func (toyModel) IsNeighbors(callee *types.Func) bool { return callee.Name() == "neighbors" }

func (toyModel) IsParentField(*types.Info, *ast.SelectorExpr) bool { return false }

func (m toyModel) IsStateColumn(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && m.IsConfig(info.TypeOf(id))
}

const toySrc = `package toy

type Config []int

var global int

func neighbors(p int) []int { return nil }

func readOwn(c Config, p int) int { return c[p] }

func readHop(c Config, p int) int {
	t := 0
	for _, q := range neighbors(p) {
		t += c[q]
	}
	return t
}

func readTwo(c Config, p int) int {
	t := 0
	for _, q := range neighbors(p) {
		for _, r := range neighbors(q) {
			t += c[r]
		}
	}
	return t
}

func impure() { global++ }

func grow() []int { return make([]int, 4) }

func chain(c Config, p int) int {
	return readHop(c, p) + len(grow())
}

func tainted(c Config, p int) int {
	impure()
	return readOwn(c, p)
}
`

func loadToy(t *testing.T) (*dataflow.Engine, map[string]*types.Func) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "toy.go", toySrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.Default()}
	tpkg, err := conf.Check("toy", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	eng := dataflow.NewEngine([]*dataflow.Pkg{{
		Path:  "toy",
		Files: []*ast.File{file},
		Types: tpkg,
		Info:  info,
	}}, toyModel{})

	fns := make(map[string]*types.Func)
	eng.Funcs(func(fi *dataflow.FuncInfo) { fns[fi.Fn.Name()] = fi.Fn })
	return eng, fns
}

func TestEngineClean(t *testing.T) {
	eng, fns := loadToy(t)
	for name, want := range map[string]bool{
		"readOwn": true,
		"readHop": true,
		"readTwo": true,
		"grow":    false, // allocates; a disabled path may not
		"chain":   false, // transitively through grow
		"impure":  false, // writes a global
		"tainted": false, // transitively through impure
	} {
		if got := eng.Clean(fns[name]); got != want {
			t.Errorf("Clean(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestEngineReachableAllocs(t *testing.T) {
	eng, fns := loadToy(t)
	if sites := eng.ReachableAllocs(fns["readHop"]); len(sites) != 0 {
		t.Errorf("ReachableAllocs(readHop) = %v, want none", sites)
	}
	sites := eng.ReachableAllocs(fns["chain"])
	if len(sites) == 0 {
		t.Fatalf("ReachableAllocs(chain) found nothing; grow's make should be reachable")
	}
	if sites[0].Alloc != dataflow.AllocMake {
		t.Errorf("first reachable alloc kind = %v, want AllocMake", sites[0].Kind)
	}
}

func TestEngineHops(t *testing.T) {
	eng, fns := loadToy(t)
	for name, want := range map[string]int{
		"readOwn": 0, // c[p]: the acting processor itself
		"readHop": 1, // c[q] for q in neighbors(p)
		"readTwo": 2, // nested adjacency
		"chain":   1, // composes readHop through the call site
	} {
		h := eng.HopsOf(fns[name])
		if h == nil {
			t.Fatalf("HopsOf(%s) = nil", name)
		}
		if len(h.UnboundedSites) != 0 {
			t.Errorf("HopsOf(%s) has unbounded sites %v", name, h.UnboundedSites)
		}
		got := -1
		for _, hop := range h.ByParam {
			if hop > got {
				got = hop
			}
		}
		if got != want {
			t.Errorf("max hop of %s = %d, want %d", name, got, want)
		}
	}
}

func TestEngineReachable(t *testing.T) {
	eng, fns := loadToy(t)
	reach := eng.Reachable([]*types.Func{fns["chain"]})
	names := make(map[string]bool)
	for _, fi := range reach {
		names[fi.Fn.Name()] = true
	}
	for _, want := range []string{"chain", "readHop", "grow", "neighbors"} {
		if !names[want] {
			t.Errorf("Reachable(chain) missing %s: %v", want, names)
		}
	}
	if names["impure"] || names["tainted"] {
		t.Errorf("Reachable(chain) includes unreachable functions: %v", names)
	}
}

func TestEngineInfoAndParams(t *testing.T) {
	eng, fns := loadToy(t)
	fi := eng.Info(fns["readHop"])
	if fi == nil {
		t.Fatal("Info(readHop) = nil")
	}
	p0 := dataflow.ParamAt(fi, 0)
	p1 := dataflow.ParamAt(fi, 1)
	if p0 == nil || p0.Name() != "c" || p1 == nil || p1.Name() != "p" {
		t.Errorf("ParamAt(readHop) = %v, %v; want c, p", p0, p1)
	}
	if dataflow.ParamAt(fi, 2) != nil {
		t.Errorf("ParamAt past the last parameter should be nil")
	}
	if eng.Info(nil) != nil {
		t.Errorf("Info(nil) should be nil")
	}
}

func TestEngineSummaryEffects(t *testing.T) {
	eng, fns := loadToy(t)
	sum := eng.Summary(fns["impure"])
	if sum == nil {
		t.Fatal("Summary(impure) = nil")
	}
	found := false
	for _, s := range sum.Effects {
		if s.Kind == dataflow.EffWriteGlobal {
			found = true
		}
	}
	if !found {
		t.Errorf("Summary(impure) lacks the global-write effect: %+v", sum.Effects)
	}
}
