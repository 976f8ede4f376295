// Package dataflow is snapvet's interprocedural analysis core: per-function
// summaries of reads, writes, allocations, and calls, composed bottom-up
// over the static call graph with fixpoint handling for recursion. It is
// stdlib-only (go/ast + go/types), like the rest of the analyzer.
//
// The package knows nothing about the loader or the analyzers; it consumes
// type-checked packages (Pkg) and a Model describing which types embody the
// simulation model (configurations, state boxes, neighbor lists). On top of
// the summaries it answers the questions the contract analyzers ask:
//
//   - Effects: which impure operations (shared-state writes, map/channel
//     mutation, I/O, clock, global randomness) does a function — or anything
//     it statically reaches — perform, and where (guardpure, writelocal,
//     obspure).
//   - Hops: how far from a processor argument do a guard's state reads
//     travel, measured in neighbor-iteration depth (radiusbound). Recursive
//     guard helpers are widened to "unbounded" past MaxHop.
//   - Allocs: which expressions may heap-allocate, transitively (hotalloc's
//     interprocedural audit, obspure's disabled-path proof).
//
// Approximations, recorded here once: call edges follow callees the type
// checker resolves to a concrete *types.Func; calls through interface
// values or function-typed variables have no edge and surface as
// EffDynamic sites so analyzers can decide whether "unknown" is a finding.
// The intraprocedural walks are flow-insensitive except for source order:
// a variable's derivation is the last one assigned before the use in
// source order, which is exact for the straight-line guard and kernel code
// this repository writes.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Pkg is one type-checked package handed to the engine.
type Pkg struct {
	// Path is the import path (test variants share their base package's
	// path).
	Path string
	// Files are the parsed files whose declarations this package owns.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the checker's expression/object tables.
	Info *types.Info
}

// Model tells the engine which types and calls embody the simulation
// model. Implementations must be robust to the same source being
// type-checked into several universes (test variants): match by name and
// import path, not object identity.
type Model interface {
	// IsConfig reports whether t is a global-configuration type
	// (sim.Configuration, flat.Config), possibly behind a pointer.
	IsConfig(t types.Type) bool
	// IsStateBox reports whether t is a shared processor-state box: a
	// pointer implementing the state interface, or the interface itself.
	IsStateBox(t types.Type) bool
	// StateIndex reports whether e reads processor state indexed by an
	// expression: c.States[i], a flat state column c.pif[i], … idx is the
	// processor-index expression; parent is true when the read yields a
	// neighbor pointer (the Par column) rather than opaque state.
	StateIndex(info *types.Info, e ast.Expr) (idx ast.Expr, parent bool, ok bool)
	// IsNeighbors reports whether callee returns the neighbor list of its
	// single processor-index argument (graph.Graph.Neighbors,
	// flat Config.neighbors).
	IsNeighbors(callee *types.Func) bool
	// IsParentField reports whether sel selects a neighbor-pointer field
	// (core.State.Par) from a state value.
	IsParentField(info *types.Info, sel *ast.SelectorExpr) bool
	// IsStateColumn reports whether e denotes an entire per-processor
	// state column (c.States, a flat field slice) — ranging over one
	// reads state at every processor.
	IsStateColumn(info *types.Info, e ast.Expr) bool
}

// EffectKind classifies one summary site.
type EffectKind int

const (
	// EffWriteConfig mutates a global configuration.
	EffWriteConfig EffectKind = iota
	// EffWriteBox mutates a shared processor-state box.
	EffWriteBox
	// EffWriteMap stores into a map.
	EffWriteMap
	// EffWriteGlobal writes a package-level variable.
	EffWriteGlobal
	// EffSend sends on a channel.
	EffSend
	// EffClose closes a channel.
	EffClose
	// EffDelete deletes from a map.
	EffDelete
	// EffPrint calls the print/println builtins.
	EffPrint
	// EffIO calls an I/O-performing stdlib function.
	EffIO
	// EffClock reads the wall clock.
	EffClock
	// EffRand draws from the process-global math/rand source.
	EffRand
	// EffAlloc may heap-allocate (alloc sites live in Summary.Allocs).
	EffAlloc
	// EffDynamic is a call with no static callee (interface method or
	// function value): the summary is incomplete past it.
	EffDynamic
)

// AllocKind classifies one allocation site (Site.Alloc).
type AllocKind int

const (
	// AllocMake is a make call.
	AllocMake AllocKind = iota
	// AllocNew is a new call.
	AllocNew
	// AllocLit is a slice or map composite literal.
	AllocLit
	// AllocAddrComposite takes the address of a composite literal.
	AllocAddrComposite
	// AllocClosure creates a function literal.
	AllocClosure
	// AllocAppend is an append whose result does not feed its own buffer.
	AllocAppend
	// AllocBox converts a non-pointer-shaped value to an interface.
	AllocBox
	// AllocConv is a string<->[]byte/[]rune conversion.
	AllocConv
)

// Site is one classified operation in a function body.
type Site struct {
	// Kind classifies the operation.
	Kind EffectKind
	// Alloc refines Kind == EffAlloc.
	Alloc AllocKind
	// Pos locates the operation.
	Pos token.Pos
	// Fn is the function whose body contains the site.
	Fn *types.Func
	// Callee is the resolved target for call sites (EffIO/EffClock/
	// EffRand), nil otherwise.
	Callee *types.Func
	// Detail is a pre-rendered fragment for messages (builtin name, boxed
	// type, conversion shape).
	Detail string
	// BoxWhat distinguishes boxing contexts ("interface argument",
	// "panic") for EffAlloc/AllocBox sites.
	BoxWhat string
	// Root is the write path's root identifier (EffWrite*), nil when the
	// root is not a plain identifier.
	Root *ast.Ident
}

// Call is one resolved call site.
type Call struct {
	// Callee is the static target.
	Callee *types.Func
	// Expr is the call expression.
	Expr *ast.CallExpr
}

// Summary is the intraprocedural summary of one function body: its own
// effect and allocation sites plus its resolved calls. Transitive facts
// (reachability, hop bounds) are computed by the engine on top.
type Summary struct {
	// Fn identifies the function.
	Fn *types.Func
	// Effects are the function's own impure operations, in source order.
	Effects []Site
	// Allocs are the function's own may-allocate sites, in source order.
	Allocs []Site
	// Calls are the resolved call sites, in source order.
	Calls []Call
	// Dynamic are the unresolved call sites (EffDynamic), in source order.
	Dynamic []Site
}

// FuncInfo is one declared module function.
type FuncInfo struct {
	// Fn is the type checker's object.
	Fn *types.Func
	// Decl is the declaration (Body non-nil).
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Pkg
}

// MaxHop is the widening bound for hop-depth fixpoints: a derived radius
// that exceeds it (mutual recursion over neighbor scans) is reported as
// unbounded rather than iterated further. No real guard reads anywhere
// near this deep.
const MaxHop = 16

// Unbounded marks a state read whose processor index does not derive from
// any parameter's neighbor iteration.
const Unbounded = MaxHop + 1

// Hops is the neighbor-read summary of one function: for each parameter
// (flat index over the declared parameters, receiver excluded), the
// maximum hop distance at which state is read relative to that parameter,
// and the sites whose read index is statically unbounded.
type Hops struct {
	// ByParam maps parameter index -> max hop of state reads derived from
	// it (present only for parameters with at least one derived read).
	ByParam map[int]int
	// RetState maps parameter index -> hop offset when the function
	// returns a state value read at that offset from the parameter
	// (st(c, p) returns the state of p: RetState[1] = 0).
	RetState map[int]int
	// RetNeighbor maps parameter index -> hop offset when the function
	// returns a processor index one neighbor hop beyond the parameter
	// (bestPotential(c, p) returns a neighbor of p: RetNeighbor[1] = 1).
	RetNeighbor map[int]int
	// UnboundedSites are state reads at statically underivable indices.
	UnboundedSites []token.Pos
}

// Engine builds and caches summaries over a set of packages.
type Engine struct {
	model Model
	pkgs  []*Pkg

	funcs     map[*types.Func]*FuncInfo
	summaries map[*types.Func]*Summary
	hops      map[*types.Func]*Hops
	hopDone   map[*types.Func]bool
	allocs    map[*types.Func][]Site
	allocing  map[*types.Func]bool
}

// NewEngine indexes every declared function body in pkgs.
func NewEngine(pkgs []*Pkg, model Model) *Engine {
	e := &Engine{
		model:     model,
		pkgs:      pkgs,
		funcs:     make(map[*types.Func]*FuncInfo),
		summaries: make(map[*types.Func]*Summary),
		hops:      make(map[*types.Func]*Hops),
		hopDone:   make(map[*types.Func]bool),
		allocs:    make(map[*types.Func][]Site),
		allocing:  make(map[*types.Func]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					e.funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return e
}

// Info returns the declaration record for fn, or nil when fn has no body
// in the analyzed packages (stdlib, interface method).
func (e *Engine) Info(fn *types.Func) *FuncInfo { return e.funcs[fn] }

// Funcs iterates every indexed function.
func (e *Engine) Funcs(yield func(*FuncInfo)) {
	for _, fi := range e.funcs {
		yield(fi)
	}
}

// Summary returns fn's intraprocedural summary, built on first use.
func (e *Engine) Summary(fn *types.Func) *Summary {
	if s, ok := e.summaries[fn]; ok {
		return s
	}
	fi := e.funcs[fn]
	if fi == nil {
		return nil
	}
	s := buildSummary(e.model, fi)
	e.summaries[fn] = s
	return s
}

// Reachable returns every analyzed function reachable from roots along
// static call edges, roots included (only functions with bodies appear),
// in deterministic discovery order.
func (e *Engine) Reachable(roots []*types.Func) []*FuncInfo {
	seen := make(map[*types.Func]bool)
	var out []*FuncInfo
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		fi := e.funcs[fn]
		if fi == nil {
			continue
		}
		out = append(out, fi)
		sum := e.Summary(fn)
		for i := len(sum.Calls) - 1; i >= 0; i-- {
			stack = append(stack, sum.Calls[i].Callee)
		}
	}
	return out
}

// ReachableAllocs returns every may-allocate site statically reachable
// from fn (fn's own body included), memoized. Recursion is handled by the
// in-progress marker: a cycle contributes its members' own sites exactly
// once.
func (e *Engine) ReachableAllocs(fn *types.Func) []Site {
	if s, ok := e.allocs[fn]; ok {
		return s
	}
	if e.allocing[fn] {
		return nil // cycle: the initiator accumulates the members' sites
	}
	fi := e.funcs[fn]
	if fi == nil {
		return nil
	}
	e.allocing[fn] = true
	sum := e.Summary(fn)
	sites := append([]Site(nil), sum.Allocs...)
	for _, c := range sum.Calls {
		sites = append(sites, e.ReachableAllocs(c.Callee)...)
	}
	delete(e.allocing, fn)
	e.allocs[fn] = sites
	return sites
}

// Clean reports whether fn and everything it reaches is statically free
// of effects, allocations, and dynamic calls — the obligation of a
// disabled-path statement.
func (e *Engine) Clean(fn *types.Func) bool {
	if e.funcs[fn] == nil {
		return false // no body: unknown, assume dirty
	}
	for _, fi := range e.Reachable([]*types.Func{fn}) {
		sum := e.Summary(fi.Fn)
		if len(sum.Effects) > 0 || len(sum.Allocs) > 0 || len(sum.Dynamic) > 0 {
			return false
		}
	}
	return true
}

// HopsOf returns fn's neighbor-read summary, computing the interprocedural
// fixpoint over fn's reachable subgraph on first use. Hop values are
// widened to Unbounded past MaxHop, so recursion converges.
func (e *Engine) HopsOf(fn *types.Func) *Hops {
	if e.hopDone[fn] {
		return e.hops[fn]
	}
	fis := e.Reachable([]*types.Func{fn})
	// Seed every function in the subgraph with its body-only hops, then
	// iterate to a fixpoint: each pass re-runs the intraprocedural walk
	// with the latest callee summaries. Monotone in a finite lattice
	// (hops capped at Unbounded), so this terminates.
	for changed := true; changed; {
		changed = false
		for _, fi := range fis {
			next := hopWalk(e, fi)
			if !hopsEqual(e.hops[fi.Fn], next) {
				e.hops[fi.Fn] = next
				changed = true
			}
		}
	}
	// Every function in the converged subgraph is itself converged for
	// its own (smaller) subgraph.
	for _, fi := range fis {
		e.hopDone[fi.Fn] = true
	}
	return e.hops[fn]
}

func hopsEqual(a, b *Hops) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.ByParam) != len(b.ByParam) || len(a.RetState) != len(b.RetState) ||
		len(a.RetNeighbor) != len(b.RetNeighbor) || len(a.UnboundedSites) != len(b.UnboundedSites) {
		return false
	}
	for k, v := range a.ByParam {
		if b.ByParam[k] != v {
			return false
		}
	}
	for k, v := range a.RetState {
		if b.RetState[k] != v {
			return false
		}
	}
	for k, v := range a.RetNeighbor {
		if b.RetNeighbor[k] != v {
			return false
		}
	}
	return true
}

// CalleeOf resolves a call expression's static callee, or nil for
// builtins, conversions, and dynamic calls.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified call: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// BuiltinName returns the name of the builtin a call invokes, or "".
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// IsGlobalRand reports whether fn is a package-level math/rand function
// drawing from the process-global source (methods on *rand.Rand and the
// seeded constructors are deterministic and allowed).
func IsGlobalRand(fn *types.Func) bool {
	switch pkgPath(fn) {
	case "math/rand", "math/rand/v2":
	default:
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// pkgPath returns the import path of fn's package ("" for builtins and
// functions without packages).
func pkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// PkgPath is pkgPath, exported for analyzers formatting messages.
func PkgPath(fn *types.Func) string { return pkgPath(fn) }

// ParamAt returns the object of fn's i-th declared parameter (receiver
// excluded), or nil.
func ParamAt(fi *FuncInfo, i int) types.Object {
	params := fi.Decl.Type.Params
	if params == nil {
		return nil
	}
	n := 0
	for _, field := range params.List {
		for _, name := range field.Names {
			if n == i {
				return fi.Pkg.Info.Defs[name]
			}
			n++
		}
		if len(field.Names) == 0 {
			n++
		}
	}
	return nil
}
