package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"snappif/internal/analysis/dataflow"
)

// simTypes locates the types of the paper's computational model in the
// loaded program. Test variants re-type-check the same source into fresh
// universes, so each model type may have several incarnations; every
// lookup here is a slice and every predicate answers "in any universe".
type simTypes struct {
	protocols []*types.Interface // sim.Protocol per universe
	states    []*types.Interface // sim.State per universe
	locals    []*types.Interface // sim.LocalProtocol per universe
	radii     []*types.Interface // sim.RadiusProtocol per universe
	configs   []*types.Named     // sim.Configuration per universe
	flats     []*types.Named     // flat.Config per universe
}

// lookupSimTypes returns nil when the module has no internal/sim package
// (then the model-aware analyzers have nothing to check).
func lookupSimTypes(prog *Program) *simTypes {
	st := &simTypes{}
	for _, pkg := range prog.Packages {
		switch prog.RelPath(pkg.Path) {
		case "internal/sim":
			scope := pkg.Pkg.Scope()
			if o := scope.Lookup("Protocol"); o != nil {
				if iface, ok := o.Type().Underlying().(*types.Interface); ok {
					st.protocols = append(st.protocols, iface)
				}
			}
			if o := scope.Lookup("State"); o != nil {
				if iface, ok := o.Type().Underlying().(*types.Interface); ok {
					st.states = append(st.states, iface)
				}
			}
			if o := scope.Lookup("LocalProtocol"); o != nil {
				if iface, ok := o.Type().Underlying().(*types.Interface); ok {
					st.locals = append(st.locals, iface)
				}
			}
			if o := scope.Lookup("RadiusProtocol"); o != nil {
				if iface, ok := o.Type().Underlying().(*types.Interface); ok {
					st.radii = append(st.radii, iface)
				}
			}
			if o := scope.Lookup("Configuration"); o != nil {
				if named, ok := o.Type().(*types.Named); ok {
					st.configs = append(st.configs, named)
				}
			}
		case "internal/flat":
			if o := pkg.Pkg.Scope().Lookup("Config"); o != nil {
				if named, ok := o.Type().(*types.Named); ok {
					st.flats = append(st.flats, named)
				}
			}
		}
	}
	if len(st.protocols) == 0 || len(st.states) == 0 || len(st.configs) == 0 {
		return nil
	}
	return st
}

// implementsProtocol reports whether T (or *T) satisfies sim.Protocol in
// T's own universe.
func (st *simTypes) implementsProtocol(t types.Type) bool {
	if st == nil {
		return false
	}
	for _, p := range st.protocols {
		if types.Implements(t, p) || types.Implements(types.NewPointer(t), p) {
			return true
		}
	}
	return false
}

// implementsLocal reports whether T (or *T) claims sim.LocalProtocol —
// the radius contract's entry condition.
func (st *simTypes) implementsLocal(t types.Type) bool {
	if st == nil {
		return false
	}
	for _, p := range st.locals {
		if types.Implements(t, p) || types.Implements(types.NewPointer(t), p) {
			return true
		}
	}
	return false
}

// implementsRadius reports whether T (or *T) additionally declares a
// DirtyRadius via sim.RadiusProtocol.
func (st *simTypes) implementsRadius(t types.Type) bool {
	if st == nil {
		return false
	}
	for _, p := range st.radii {
		if types.Implements(t, p) || types.Implements(types.NewPointer(t), p) {
			return true
		}
	}
	return false
}

// IsConfig reports whether t is a global-configuration type —
// sim.Configuration or internal/flat's Config — possibly behind a
// pointer. Implements dataflow.Model.
func (st *simTypes) IsConfig(t types.Type) bool {
	if st == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for _, c := range st.configs {
		if named.Origin() == c.Origin() {
			return true
		}
	}
	for _, c := range st.flats {
		if named.Origin() == c.Origin() {
			return true
		}
	}
	return false
}

// IsStateBox reports whether t is a shared processor-state box: a pointer
// whose type implements sim.State, or the sim.State interface itself.
// Implements dataflow.Model.
func (st *simTypes) IsStateBox(t types.Type) bool {
	if st == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		for _, s := range st.states {
			if types.Implements(t, s) {
				return true
			}
		}
		return false
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for _, s := range st.states {
			if types.Implements(iface, s) || types.Identical(iface, s) {
				return true
			}
		}
	}
	return false
}

// flatStateColumns are flat.Config's per-processor register columns, the
// SoA mirror of core.State (flat.go). Indexing one reads processor state;
// "par" yields the indexed processor's parent pointer. The CSR topology
// fields (off, adj) and the graph handle are deliberately absent: reading
// topology is not reading state.
var flatStateColumns = map[string]bool{
	"pif": true, "par": true, "level": true, "count": true,
	"fok": true, "msg": true, "val": true, "agg": true,
}

// stateColumn reports whether sel selects a per-processor state column
// from a configuration value: sim's States slice or a flat register
// column. parent marks the column holding neighbor pointers.
func (st *simTypes) stateColumn(info *types.Info, sel *ast.SelectorExpr) (parent, ok bool) {
	if st == nil {
		return false, false
	}
	t := info.TypeOf(sel.X)
	if t == nil || !st.IsConfig(t) {
		return false, false
	}
	name := sel.Sel.Name
	if name == "States" || flatStateColumns[name] {
		return name == "par", true
	}
	return false, false
}

// StateIndex implements dataflow.Model: c.States[i] and flat column
// indexing c.pif[i] are processor-state reads keyed by i.
func (st *simTypes) StateIndex(info *types.Info, e ast.Expr) (idx ast.Expr, parent bool, ok bool) {
	if st == nil {
		return nil, false, false
	}
	ix, isIx := ast.Unparen(e).(*ast.IndexExpr)
	if !isIx {
		return nil, false, false
	}
	sel, isSel := ast.Unparen(ix.X).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	parent, ok = st.stateColumn(info, sel)
	if !ok {
		return nil, false, false
	}
	return ix.Index, parent, true
}

// IsNeighbors implements dataflow.Model: a callee returning the neighbor
// list of its single processor-index argument. Matched structurally
// (name + signature) so graph.Graph.Neighbors and flat.Config.neighbors
// qualify in every universe.
func (st *simTypes) IsNeighbors(callee *types.Func) bool {
	if st == nil {
		return false
	}
	if callee == nil {
		return false
	}
	switch callee.Name() {
	case "Neighbors", "neighbors":
	default:
		return false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !isIntegerType(sig.Params().At(0).Type()) {
		return false
	}
	sl, ok := sig.Results().At(0).Type().Underlying().(*types.Slice)
	return ok && isIntegerType(sl.Elem())
}

// IsParentField implements dataflow.Model: the Par field of a state value
// holds the processor's parent pointer — one neighbor hop.
func (st *simTypes) IsParentField(info *types.Info, sel *ast.SelectorExpr) bool {
	if st == nil {
		return false
	}
	if sel.Sel.Name != "Par" {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "State"
}

// IsStateColumn implements dataflow.Model: an entire per-processor column
// (ranging over it reads state at every processor).
func (st *simTypes) IsStateColumn(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	_, isCol := st.stateColumn(info, sel)
	return isCol
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// protocolImplementers yields every named type in the module that
// satisfies sim.Protocol, with its defining package. Test variants
// re-declare base types; the caller's findings deduplicate by position.
func protocolImplementers(prog *Program, st *simTypes) []*types.Named {
	var out []*types.Named
	for _, pkg := range prog.Packages {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			if st.implementsProtocol(named) {
				out = append(out, named)
			}
		}
	}
	return out
}

// methodOf resolves the named method on T or *T.
func methodOf(t *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), false, t.Obj().Pkg(), name)
	fn, _ := obj.(*types.Func)
	return fn
}

// moduleFunc reports whether fn is declared in this module (test variants
// included): the boundary for "we can see the body" decisions.
func moduleFunc(prog *Program, fn *types.Func) bool {
	path := dataflow.PkgPath(fn)
	return path == prog.ModulePath || strings.HasPrefix(path, prog.ModulePath+"/")
}
