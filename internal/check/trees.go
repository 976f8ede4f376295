// Package check implements the correctness machinery of Section 4 of the
// paper: ParentPaths, Trees, the LegalTree and the GLT (Definitions 3–16),
// the configuration classes (Normal, SB, SBN, EBN, EF, EFN, Good), the
// invariants Property 1 and Property 2, the chordless-ParentPath property
// from the proof of Theorem 4, and an observer that checks the PIF-cycle
// specification ([PIF1], [PIF2], Specification 1) on live runs.
//
// Everything here is *read-only* analysis over configurations; the checkers
// reuse the protocol's own predicate implementations so that the
// classification in experiments is exactly the paper's.
package check

import (
	"sort"

	"snappif/internal/core"
	"snappif/internal/sim"
)

// stateOf extracts p's PIF state.
func stateOf(c *sim.Configuration, p int) core.State {
	return core.At(c, p)
}

// ParentPath returns the ParentPath of p (Definition 4): the maximal chain
// p = p0, p1, … following Par pointers while each pi (i < k) is normal,
// ending at the root or at the first abnormal processor. It returns nil when
// Pif_p = C (the paper defines ParentPath only for participating
// processors). A Par cycle among corrupted states terminates the path at the
// first revisited processor, which is then reported as the (abnormal)
// extremity.
func ParentPath(c *sim.Configuration, pr *core.Protocol, p int) []int {
	if stateOf(c, p).Pif == core.C {
		return nil
	}
	path := []int{p}
	visited := map[int]bool{p: true}
	cur := p
	for cur != pr.Root && pr.Normal(c, cur) {
		next := stateOf(c, cur).Par
		if visited[next] {
			// Corrupted Par cycle: treat the revisited processor as the
			// extremity. It is necessarily abnormal in any configuration
			// the protocol maintains (GoodLevel forbids cycles), so this
			// only triggers on injected faults.
			path = append(path, next)
			return path
		}
		visited[next] = true
		path = append(path, next)
		cur = next
	}
	return path
}

// InLegalTree reports whether p belongs to the LegalTree (Definitions 5–6):
// the extremity of ParentPath(p) is the root and every processor before the
// extremity is normal. The root itself always belongs to its tree.
func InLegalTree(c *sim.Configuration, pr *core.Protocol, p int) bool {
	if p == pr.Root {
		return true
	}
	if stateOf(c, p).Pif == core.C {
		return false
	}
	path := ParentPath(c, pr, p)
	return path[len(path)-1] == pr.Root
}

// stackProcs is the largest configuration whose treeView scratch the
// predicates keep on the stack; a larger one takes it from the heap.
const stackProcs = 64

// Per-processor flags of a treeView.
const (
	normalKnown uint8 = 1 << iota // Normal(p) has been evaluated
	isNormal                      // Normal(p) holds
	walked                        // reachesRoot is final
	reachesRoot                   // the Par walk from p ends at the root
	onWalk                        // p is on the walk in progress
	pointed                       // a non-root member's Par is p (Sources)
)

// treeView answers LegalTree membership for every processor of one
// configuration with one memoized Par walk. ParentPath(p) follows Par
// pointers through normal processors until the root, an abnormal processor
// or a revisit, and p is a member when it participates and that walk ends at
// the root. Each walk stops early at a processor an earlier walk resolved,
// whose own walk is the rest of this one, so every processor is walked
// once and Normal is evaluated at most once per processor. A walk that
// comes back to a processor on it (a Par cycle) counts as "does not reach
// the root", as ParentPath's revisit does. GoodLevel rules out a cycle of
// normal processors, so every real cycle stops at an abnormal processor
// first; the revisit test only keeps the walk finite whatever Normal says.
// InLegalTree and ParentPath stay the definition;
// TestTreeViewMatchesDefinition compares the two on random corruptions.
type treeView struct {
	c     *sim.Configuration
	pr    *core.Protocol
	flags []uint8
}

// newTreeView builds the view over c with flags as scratch: a zeroed
// buffer of at least c.N() bytes, or a shorter one to allocate instead.
//
//snapvet:hotpath
func newTreeView(c *sim.Configuration, pr *core.Protocol, flags []uint8) treeView {
	if n := c.N(); len(flags) < n {
		flags = make([]uint8, n) //snapvet:ok configurations above stackProcs processors take their scratch from the heap
	} else {
		flags = flags[:n]
	}
	return treeView{c: c, pr: pr, flags: flags}
}

// normal reports Normal(p), evaluating it on first use.
//
//snapvet:hotpath
func (t *treeView) normal(p int) bool {
	f := t.flags[p]
	if f&normalKnown == 0 {
		f |= normalKnown
		if t.pr.Normal(t.c, p) {
			f |= isNormal
		}
		t.flags[p] = f
	}
	return f&isNormal != 0
}

// member reports whether p belongs to the LegalTree (InLegalTree).
//
//snapvet:hotpath
func (t *treeView) member(p int) bool {
	return p == t.pr.Root || (stateOf(t.c, p).Pif != core.C && t.reaches(p))
}

// reaches reports whether the extremity of the Par walk from p is the root.
// The first pass follows Par from p, marking the walk, until the root, an
// abnormal processor, a resolved processor or a processor already on the
// walk (a cycle); the second pass resolves every processor of the walk to
// that outcome.
//
//snapvet:hotpath
func (t *treeView) reaches(p int) bool {
	root := t.pr.Root
	var ok bool
	for cur := p; ; {
		f := t.flags[cur]
		switch {
		case cur == root:
			ok = true
		case f&walked != 0:
			ok = f&reachesRoot != 0
		case f&onWalk != 0, !t.normal(cur):
			ok = false
		default:
			t.flags[cur] |= onWalk
			cur = stateOf(t.c, cur).Par
			continue
		}
		break
	}
	resolved := walked
	if ok {
		resolved |= reachesRoot
	}
	for cur := p; cur != root && t.flags[cur]&onWalk != 0; cur = stateOf(t.c, cur).Par {
		t.flags[cur] = t.flags[cur]&^onWalk | resolved
	}
	return ok
}

// subtreeSizes returns #Subtree(p) for every member and 0 elsewhere, level
// by level in linear time. A non-root member is normal and participates, so
// GoodLevel makes its level its parent's plus one and its parent a member
// too: the members form a tree in which member p sits L_p − L_r levels
// below the root. Members are bucketed by that depth, and each adds its
// size to its parent's from the deepest level up. The result and the
// bucket scratch live in sizes (n entries) and scratch (2n+1); shorter
// buffers are replaced by fresh ones.
//
//snapvet:hotpath
func (t *treeView) subtreeSizes(sizes []int, scratch []int32) []int {
	n := len(t.flags)
	if len(sizes) < n || len(scratch) < 2*n+1 {
		sizes, scratch = make([]int, n), make([]int32, 2*n+1) //snapvet:ok configurations above stackProcs processors take their scratch from the heap
	}
	sizes, start, order := sizes[:n], scratch[:n+1], scratch[n+1:2*n+1]
	lr := stateOf(t.c, t.pr.Root).L
	clear(start)
	for p := 0; p < n; p++ {
		sizes[p] = 0
		if t.member(p) {
			sizes[p] = 1
			start[stateOf(t.c, p).L-lr+1]++
		}
	}
	for d := 1; d <= n; d++ {
		start[d] += start[d-1]
	}
	for p := 0; p < n; p++ {
		if sizes[p] != 0 {
			d := stateOf(t.c, p).L - lr
			order[start[d]] = int32(p)
			start[d]++
		}
	}
	// start[d] now ends depth d's bucket, so start[n-1] is the member count.
	for i := int(start[n-1]) - 1; i >= 0; i-- {
		if p := int(order[i]); p != t.pr.Root {
			sizes[stateOf(t.c, p).Par] += sizes[p]
		}
	}
	return sizes
}

// LegalTree returns the sorted member list of the LegalTree.
func LegalTree(c *sim.Configuration, pr *core.Protocol) []int {
	var flags [stackProcs]uint8
	t := newTreeView(c, pr, flags[:])
	var out []int
	for p := 0; p < c.N(); p++ {
		if t.member(p) {
			out = append(out, p)
		}
	}
	return out
}

// Abnormal returns the sorted list of abnormal processors (¬Normal(p)).
// Processors with Pif_p = C are always normal.
func Abnormal(c *sim.Configuration, pr *core.Protocol) []int {
	var out []int
	for p := 0; p < c.N(); p++ {
		if !pr.Normal(c, p) {
			out = append(out, p)
		}
	}
	return out
}

// Sources returns the sources of the LegalTree (Definition 7): members no
// other member points to — the processors from which the feedback phase can
// start.
func Sources(c *sim.Configuration, pr *core.Protocol) []int {
	var flags [stackProcs]uint8
	t := newTreeView(c, pr, flags[:])
	for p := 0; p < c.N(); p++ {
		if p != pr.Root && t.member(p) {
			t.flags[stateOf(c, p).Par] |= pointed
		}
	}
	var out []int
	for p := 0; p < c.N(); p++ {
		if t.member(p) && t.flags[p]&pointed == 0 {
			out = append(out, p)
		}
	}
	return out
}

// Tree is one tree of Definition 5: the processors whose ParentPath ends at
// Root, which is either the protocol root (the LegalTree, Definition 6) or
// an abnormal processor.
type Tree struct {
	// Root is the tree's extremity (the protocol root or an abnormal
	// processor).
	Root int
	// Abnormal reports whether Root is an abnormal processor.
	Abnormal bool
	// Members lists the tree's processors in ascending order (the root
	// included).
	Members []int
}

// Trees computes the full forest of Definition 5: one tree rooted at the
// protocol root plus one per abnormal processor. Every participating
// processor belongs to exactly one tree; clean processors (other than a
// clean protocol root) belong to none.
func Trees(c *sim.Configuration, pr *core.Protocol) []Tree {
	members := make(map[int][]int)
	for p := 0; p < c.N(); p++ {
		if p == pr.Root {
			members[pr.Root] = append(members[pr.Root], p)
			continue
		}
		if stateOf(c, p).Pif == core.C {
			continue
		}
		path := ParentPath(c, pr, p)
		ext := path[len(path)-1]
		if ext == p && !pr.Normal(c, p) {
			// p itself is abnormal: it roots its own tree.
			members[p] = append(members[p], p)
			continue
		}
		members[ext] = append(members[ext], p)
	}
	roots := make([]int, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([]Tree, 0, len(roots))
	for _, r := range roots {
		sort.Ints(members[r])
		out = append(out, Tree{
			Root:     r,
			Abnormal: !pr.Normal(c, r),
			Members:  members[r],
		})
	}
	return out
}

// SubtreeSizes returns, for every LegalTree member, the size of its subtree
// within the LegalTree (#Subtree(p) in Property 2); non-members map to 0.
func SubtreeSizes(c *sim.Configuration, pr *core.Protocol) []int {
	var flags [stackProcs]uint8
	t := newTreeView(c, pr, flags[:])
	return t.subtreeSizes(nil, nil)
}

// TreeHeight returns the maximum level among LegalTree members — the height
// h of the constructed tree (Theorem 4).
func TreeHeight(c *sim.Configuration, pr *core.Protocol) int {
	var flags [stackProcs]uint8
	t := newTreeView(c, pr, flags[:])
	h := 0
	for p := 0; p < c.N(); p++ {
		if l := stateOf(c, p).L; l > h && t.member(p) {
			h = l
		}
	}
	return h
}
