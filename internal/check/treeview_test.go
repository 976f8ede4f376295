package check_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// The reference predicates below are the ParentPath-based definitions the
// one-pass tree replaced: membership through InLegalTree (one ParentPath
// per processor), subtree sizes by a quadratic level sort, and Properties 1
// and 2 on top of them.

func refLegalTree(c *sim.Configuration, pr *core.Protocol) []int {
	var out []int
	for p := 0; p < c.N(); p++ {
		if check.InLegalTree(c, pr, p) {
			out = append(out, p)
		}
	}
	return out
}

func refInTree(c *sim.Configuration, pr *core.Protocol) map[int]bool {
	in := make(map[int]bool)
	for _, p := range refLegalTree(c, pr) {
		in[p] = true
	}
	return in
}

func refSubtreeSizes(c *sim.Configuration, pr *core.Protocol) []int {
	sizes := make([]int, c.N())
	members := refLegalTree(c, pr)
	inTree := refInTree(c, pr)
	for _, p := range members {
		sizes[p] = 1
	}
	byLevel := append([]int(nil), members...)
	for i := 0; i < len(byLevel); i++ {
		for j := i + 1; j < len(byLevel); j++ {
			if core.At(c, byLevel[j]).L > core.At(c, byLevel[i]).L {
				byLevel[i], byLevel[j] = byLevel[j], byLevel[i]
			}
		}
	}
	for _, p := range byLevel {
		if p == pr.Root {
			continue
		}
		if par := core.At(c, p).Par; inTree[par] {
			sizes[par] += sizes[p]
		}
	}
	return sizes
}

func refSources(c *sim.Configuration, pr *core.Protocol) []int {
	members := refLegalTree(c, pr)
	pointed := make(map[int]bool)
	for _, p := range members {
		if p != pr.Root {
			pointed[core.At(c, p).Par] = true
		}
	}
	var out []int
	for _, p := range members {
		if !pointed[p] {
			out = append(out, p)
		}
	}
	return out
}

func refTreeHeight(c *sim.Configuration, pr *core.Protocol) int {
	h := 0
	for _, p := range refLegalTree(c, pr) {
		h = max(h, core.At(c, p).L)
	}
	return h
}

func refIsGood(c *sim.Configuration, pr *core.Protocol) bool {
	inTree := refInTree(c, pr)
	for p := 0; p < c.N(); p++ {
		if p == pr.Root || inTree[p] {
			continue
		}
		s := core.At(c, p)
		if (s.Pif == core.B || s.Pif == core.F) && inTree[s.Par] && !pr.GoodCount(c, p) {
			return false
		}
	}
	return true
}

func refProperty1(c *sim.Configuration, pr *core.Protocol) error {
	sr := core.At(c, pr.Root)
	if sr.Pif != core.B || sr.Fok || !pr.Normal(c, pr.Root) {
		return nil
	}
	for _, p := range refLegalTree(c, pr) {
		s := core.At(c, p)
		if s.Pif != core.B {
			return fmt.Errorf("check: property 1: p%d in LegalTree has Pif=%v, want B", p, s.Pif)
		}
		if p != pr.Root && s.L != core.At(c, s.Par).L+1 {
			return fmt.Errorf("check: property 1: p%d has L=%d, parent p%d has L=%d",
				p, s.L, s.Par, core.At(c, s.Par).L)
		}
		if s.Fok {
			return fmt.Errorf("check: property 1: p%d in LegalTree has Fok raised", p)
		}
		if sum := pr.Sum(c, p); s.Count > sum {
			return fmt.Errorf("check: property 1: p%d has Count=%d > Sum=%d", p, s.Count, sum)
		}
	}
	return nil
}

func refProperty2(c *sim.Configuration, pr *core.Protocol) error {
	if !check.IsNormalConfiguration(c, pr) {
		return nil
	}
	inTree := refInTree(c, pr)
	sr := core.At(c, pr.Root)
	for p := 0; p < c.N(); p++ {
		s := core.At(c, p)
		if s.Pif != core.C && !inTree[p] {
			return fmt.Errorf("check: property 2.1: participating p%d (Pif=%v) outside LegalTree", p, s.Pif)
		}
		if sr.Pif == core.C && s.Pif != core.C {
			return fmt.Errorf("check: property 2.2: root clean but p%d has Pif=%v", p, s.Pif)
		}
		if sr.Pif == core.F && inTree[p] && s.Pif != core.F {
			return fmt.Errorf("check: property 2.3: root in feedback but tree member p%d has Pif=%v", p, s.Pif)
		}
	}
	if sr.Pif == core.B && !sr.Fok {
		sizes := refSubtreeSizes(c, pr)
		for _, p := range refLegalTree(c, pr) {
			if cnt := core.At(c, p).Count; cnt > sizes[p] {
				return fmt.Errorf("check: property 2.4: p%d has Count=%d > #Subtree=%d", p, cnt, sizes[p])
			}
		}
	}
	return nil
}

// corruptTree writes a random configuration of one of four shapes into
// cfg: a legal broadcast tree over a random BFS prefix with exact subtree
// counts, that tree with a few processors scrambled, that tree with a Par
// cycle planted on a random edge between two non-root processors, or a
// fault injector's corruption. Each shape may also get an abnormal root
// (broadcasting, Fok raised, Count below N).
func corruptTree(cfg *sim.Configuration, pr *core.Protocol, g *graph.Graph, parent, order []int, rng *rand.Rand) {
	n := g.N()
	for p := 0; p < n; p++ {
		core.Set(cfg, p, core.State{Pif: core.C, Par: parent[p], L: max(1, depthOf(parent, p)), Count: 1})
	}
	root := core.At(cfg, pr.Root)
	root.Par, root.L = core.ParNone, 0
	core.Set(cfg, pr.Root, root)
	// The first k processors in BFS order join the broadcast; feedback
	// processors form a suffix of it, so phases stay parent-consistent.
	k := 1 + rng.Intn(n)
	phase := core.B
	if rng.Intn(3) == 0 {
		phase = core.F
	}
	for i := k - 1; i >= 0; i-- {
		p := order[i]
		s := core.At(cfg, p)
		s.Pif = phase
		core.Set(cfg, p, s)
		if p != pr.Root && rng.Intn(4) == 0 {
			phase = core.B
		}
	}
	for i := k - 1; i > 0; i-- {
		p := order[i]
		par := core.At(cfg, parent[p])
		par.Count += core.At(cfg, p).Count
		core.Set(cfg, parent[p], par)
	}
	switch rng.Intn(4) {
	case 1:
		for j := rng.Intn(3) + 1; j > 0; j-- {
			p := rng.Intn(n)
			s := core.At(cfg, p)
			s.Pif = []core.Phase{core.B, core.F, core.C}[rng.Intn(3)]
			s.L = 1 + rng.Intn(pr.Lmax)
			s.Count = 1 + rng.Intn(pr.NPrime)
			s.Fok = rng.Intn(2) == 0
			if p != pr.Root {
				nb := g.Neighbors(p)
				s.Par = nb[rng.Intn(len(nb))]
			} else {
				s.L = 0
			}
			core.Set(cfg, p, s)
		}
	case 2:
		u := rng.Intn(n)
		nb := g.Neighbors(u)
		v := nb[rng.Intn(len(nb))]
		if u != pr.Root && v != pr.Root {
			su, sv := core.At(cfg, u), core.At(cfg, v)
			su.Par, sv.Par = v, u
			su.Pif, sv.Pif = core.B, core.B
			core.Set(cfg, u, su)
			core.Set(cfg, v, sv)
		}
	case 3:
		inj := fault.All()
		inj[rng.Intn(len(inj))].Apply(cfg, pr, rng)
	}
	if rng.Intn(4) == 0 {
		s := core.At(cfg, pr.Root)
		s.Pif, s.Fok, s.Count = core.B, true, 1+rng.Intn(max(1, pr.N-1))
		core.Set(cfg, pr.Root, s)
	}
}

// depthOf returns p's depth in the parent array (the root has depth 0).
func depthOf(parent []int, p int) int {
	d := 0
	for ; parent[p] >= 0; p = parent[p] {
		d++
	}
	return d
}

// errText renders an error for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestTreeViewMatchesDefinition is the differential oracle of the one-pass
// LegalTree: on random corruptions of six topologies — one of them above
// the 64 processors whose scratch lives on the stack — every predicate
// built on it must agree with its ParentPath-based definition: the member
// list, the subtree sizes, the sources, the height, the Good
// classification, and the verdict and message of Properties 1 and 2. The
// corruptions include planted Par cycles (which GoodLevel makes end at an
// abnormal processor) and abnormal roots, and the test asserts that both
// occur, as do LegalTrees that are the root alone and ones that span the
// network.
func TestTreeViewMatchesDefinition(t *testing.T) {
	perTopology := 24000
	if testing.Short() {
		perTopology = 2400
	}
	var topos []*graph.Graph
	for _, mk := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(6) },
		func() (*graph.Graph, error) { return graph.Ring(7) },
		func() (*graph.Graph, error) { return graph.Star(6) },
		func() (*graph.Graph, error) { return graph.Grid(3, 3) },
		func() (*graph.Graph, error) { return graph.Complete(5) },
		func() (*graph.Graph, error) { return graph.Ring(70) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, g)
	}
	rng := rand.New(rand.NewSource(1))
	var cycles, abnormalRoots, rootOnly, spanning, configs int
	for _, g := range topos {
		pr := core.MustNew(g, 0)
		cfg := sim.NewConfiguration(g, pr)
		parent := g.BFSTree(0)
		order := make([]int, 0, g.N())
		dist := g.BFS(0)
		for d := 0; len(order) < g.N(); d++ {
			for p := 0; p < g.N(); p++ {
				if dist[p] == d {
					order = append(order, p)
				}
			}
		}
		count := perTopology
		if g.N() > 64 {
			count /= 10
		}
		for i := 0; i < count; i++ {
			corruptTree(cfg, pr, g, parent, order, rng)
			configs++
			if !pr.Normal(cfg, pr.Root) {
				abnormalRoots++
			}
			for p := 0; p < g.N(); p++ {
				if q := core.At(cfg, p).Par; q >= 0 && q != pr.Root && core.At(cfg, q).Par == p {
					cycles++
					break
				}
			}
			where := func() string { return fmt.Sprintf("%s config %d", g.Name(), i) }
			got, want := check.LegalTree(cfg, pr), refLegalTree(cfg, pr)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: LegalTree %v, definition %v", where(), got, want)
			}
			switch len(want) {
			case 1:
				rootOnly++
			case g.N():
				spanning++
			}
			if got, want := check.SubtreeSizes(cfg, pr), refSubtreeSizes(cfg, pr); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SubtreeSizes %v, definition %v", where(), got, want)
			}
			if got, want := check.Sources(cfg, pr), refSources(cfg, pr); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Sources %v, definition %v", where(), got, want)
			}
			if got, want := check.TreeHeight(cfg, pr), refTreeHeight(cfg, pr); got != want {
				t.Fatalf("%s: TreeHeight %d, definition %d", where(), got, want)
			}
			if got, want := check.IsGoodConfiguration(cfg, pr), refIsGood(cfg, pr); got != want {
				t.Fatalf("%s: IsGoodConfiguration %v, definition %v", where(), got, want)
			}
			if got, want := errText(check.Property1(cfg, pr)), errText(refProperty1(cfg, pr)); got != want {
				t.Fatalf("%s: Property1 %q, definition %q", where(), got, want)
			}
			if got, want := errText(check.Property2(cfg, pr)), errText(refProperty2(cfg, pr)); got != want {
				t.Fatalf("%s: Property2 %q, definition %q", where(), got, want)
			}
		}
	}
	t.Logf("%d configurations: %d with a Par cycle, %d with an abnormal root, %d LegalTrees of the root alone, %d spanning",
		configs, cycles, abnormalRoots, rootOnly, spanning)
	if cycles == 0 || abnormalRoots == 0 || rootOnly == 0 || spanning == 0 {
		t.Fatal("the corruptions miss a Par cycle, an abnormal root, a root-only or a spanning LegalTree")
	}
}

// TestSectionFourChecksAllocateNothing pins the explorer's per-state checks
// at zero heap allocations on a clean verdict, on a configuration with a
// deep LegalTree under a broadcasting root.
func TestSectionFourChecksAllocateNothing(t *testing.T) {
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	parent := g.BFSTree(0)
	for p := 0; p < g.N(); p++ {
		s := core.State{Pif: core.B, Par: parent[p], L: depthOf(parent, p), Count: 1}
		if p == pr.Root {
			s.Par = core.ParNone
		}
		core.Set(cfg, p, s)
	}
	for _, chk := range check.StandardChecks() {
		if err := chk.Fn(cfg, pr); err != nil {
			t.Fatalf("%s: %v", chk.Name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = chk.Fn(cfg, pr) }); allocs != 0 {
			t.Errorf("%s allocates %.2f objects per call, want 0", chk.Name, allocs)
		}
	}
	if len(check.LegalTree(cfg, pr)) != g.N() {
		t.Fatal("the planted tree does not span the grid")
	}
}
