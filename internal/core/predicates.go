package core

import "snappif/internal/sim"

// This file implements the macros and predicates of Algorithms 1 and 2
// exactly as printed (see DESIGN.md §2 for the two flagged transcription
// repairs). All functions read a configuration without mutating it; they are
// exported so that the correctness checkers (internal/check) can classify
// configurations with the same code the protocol runs.

// st extracts processor p's PIF state from the configuration.
//
//snapvet:hotpath
func st(c *sim.Configuration, p int) State {
	s, ok := c.States[p].(*State)
	if !ok {
		panic("core: configuration does not hold *core.State")
	}
	return *s
}

// SumSet returns the macro Sum_Set_p: the neighbors q of p with Pif_q = B,
// Par_q = p, L_q = L_p + 1, under ¬Fok_p (as printed: the reader's own
// flag — with Fok_p raised the set is empty and Sum_p degenerates to 1,
// which is harmless because every consumer of Sum_p also requires ¬Fok_p).
func (pr *Protocol) SumSet(c *sim.Configuration, p int) []int {
	sp := st(c, p)
	if sp.Fok {
		return nil
	}
	var out []int
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if sq.Pif == B && sq.Par == p && sq.L == sp.L+1 {
			out = append(out, q)
		}
	}
	return out
}

// Sum returns the macro Sum_p = 1 + Σ_{q ∈ Sum_Set_p} Count_q. The set is
// folded inline rather than via SumSet so guard evaluation (which calls Sum
// through GoodCount and NewCount on every re-evaluation) never allocates.
//
//snapvet:hotpath
func (pr *Protocol) Sum(c *sim.Configuration, p int) int {
	sp := st(c, p)
	if sp.Fok {
		return 1
	}
	total := 1
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if sq.Pif == B && sq.Par == p && sq.L == sp.L+1 {
			total += sq.Count
		}
	}
	return total
}

// PrePotential returns the macro Pre_Potential_p: the neighbors q with
// Pif_q = B, Par_q ≠ p, L_q < Lmax, and ¬Fok_q — the candidates from which
// p may receive the broadcast.
func (pr *Protocol) PrePotential(c *sim.Configuration, p int) []int {
	var out []int
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if sq.Pif == B && sq.Par != p && sq.L < pr.Lmax && !sq.Fok {
			out = append(out, q)
		}
	}
	return out
}

// Potential returns the macro Potential_p: the minimum-level subset of
// Pre_Potential_p. (The paper's "∀u ∈ Set_p, L_u ≥ L_q" with Set_p read as
// Pre_Potential_p; minimality is what makes ParentPaths chordless,
// Theorem 4.)
func (pr *Protocol) Potential(c *sim.Configuration, p int) []int {
	pre := pr.PrePotential(c, p)
	if len(pre) == 0 {
		return nil
	}
	minL := st(c, pre[0]).L
	for _, q := range pre[1:] {
		if l := st(c, q).L; l < minL {
			minL = l
		}
	}
	out := pre[:0]
	for _, q := range pre {
		if st(c, q).L == minL {
			out = append(out, q)
		}
	}
	return out
}

// hasPotential reports Potential_p ≠ ∅ (equivalently Pre_Potential_p ≠ ∅)
// without materializing either set; the Broadcast guard's hot path.
//
//snapvet:hotpath
func (pr *Protocol) hasPotential(c *sim.Configuration, p int) bool {
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if sq.Pif == B && sq.Par != p && sq.L < pr.Lmax && !sq.Fok {
			return true
		}
	}
	return false
}

// bestPotential returns min_{≺p}(Potential_p) — the first neighbor in ≺p
// order among the minimum-level candidates — without materializing the set.
// Strict < comparison keeps the earliest neighbor on level ties, matching
// Potential's ordering exactly.
//
//snapvet:hotpath
func (pr *Protocol) bestPotential(c *sim.Configuration, p int) int {
	best, bestL := -1, 0
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if sq.Pif == B && sq.Par != p && sq.L < pr.Lmax && !sq.Fok &&
			(best < 0 || sq.L < bestL) {
			best, bestL = q, sq.L
		}
	}
	if best < 0 {
		panic("core: B-action applied with empty Potential set")
	}
	return best
}

// GoodFok implements the predicate GoodFok(p).
//
// Root (repaired direction, see DESIGN.md §2): (Pif_r = B) ⇒ (Fok_r ⇒
// (Count_r = N)) — the flag may be raised only once the full count is in.
//
// Non-root, as printed: a broadcasting processor whose flag differs from its
// parent's must still be lowered, and a feedback processor whose parent is
// still broadcasting requires the parent's flag raised.
//
//snapvet:hotpath
func (pr *Protocol) GoodFok(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if p == pr.Root {
		return sp.Pif != B || !sp.Fok || sp.Count == pr.N
	}
	par := st(c, sp.Par)
	if sp.Pif == B && sp.Fok != par.Fok && sp.Fok {
		return false
	}
	if sp.Pif == F && par.Pif == B && !par.Fok {
		return false
	}
	return true
}

// GoodPif implements GoodPif(p) (non-root): if p participates in a cycle,
// its parent's phase is either equal to p's or B.
//
//snapvet:hotpath
func (pr *Protocol) GoodPif(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if p == pr.Root || sp.Pif == C {
		return true
	}
	par := st(c, sp.Par)
	return par.Pif == sp.Pif || par.Pif == B
}

// GoodLevel implements GoodLevel(p) (non-root): a participating processor's
// level is one more than its parent's.
//
//snapvet:hotpath
func (pr *Protocol) GoodLevel(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if p == pr.Root || sp.Pif == C {
		return true
	}
	return sp.L == st(c, sp.Par).L+1
}

// GoodCount implements GoodCount(p): while broadcasting and not yet in the
// Fok wave, Count_p never exceeds Sum_p.
//
//snapvet:hotpath
func (pr *Protocol) GoodCount(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if sp.Pif != B || sp.Fok {
		return true
	}
	return sp.Count <= pr.Sum(c, p)
}

// Normal implements Normal(p): the conjunction of the Good* predicates (for
// the root, GoodFok ∧ GoodCount; the other two are root-trivial).
//
//snapvet:hotpath
func (pr *Protocol) Normal(c *sim.Configuration, p int) bool {
	return pr.GoodPif(c, p) && pr.GoodLevel(c, p) &&
		pr.GoodFok(c, p) && pr.GoodCount(c, p)
}

// Leaf implements Leaf(p): no participating neighbor points to p.
//
//snapvet:hotpath
func (pr *Protocol) Leaf(c *sim.Configuration, p int) bool {
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if sq.Pif != C && sq.Par == p {
			return false
		}
	}
	return true
}

// BLeaf implements BLeaf(p): if p is broadcasting, every *participating*
// neighbor that points to p has reached the feedback phase.
//
// Repair (found by the exhaustive model checker, see DESIGN.md §2): clean
// neighbors are ignored, mirroring the explicit "(Pif_q ≠ C) ⇒" qualifier
// of the companion predicate Leaf. As printed, a clean neighbor with a
// stale parent pointer at p would block p's feedback forever once p's Fok
// flag is raised — at which point that neighbor can never adopt p anyway
// (Pre_Potential requires ¬Fok) — deadlocking corrupted configurations. In
// executions from the normal starting configuration the two readings
// coincide: Feedback requires Fok, Fok requires Count_r = N, and with all N
// processors in the tree no clean stale pointer exists.
//
//snapvet:hotpath
func (pr *Protocol) BLeaf(c *sim.Configuration, p int) bool {
	if st(c, p).Pif != B {
		return true
	}
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if pr.printedGuards {
			// As printed: clean neighbors' stale pointers also block.
			if sq.Par == p && sq.Pif != F {
				return false
			}
			continue
		}
		if sq.Pif != C && sq.Par == p && sq.Pif != F {
			return false
		}
	}
	return true
}

// BFree implements BFree(p): no neighbor is broadcasting.
//
//snapvet:hotpath
func (pr *Protocol) BFree(c *sim.Configuration, p int) bool {
	for _, q := range c.G.Neighbors(p) {
		if st(c, q).Pif == B {
			return false
		}
	}
	return true
}

// Broadcast implements the guard Broadcast(p).
//
// Root: Pif_r = C and every neighbor is clean.
// Non-root: p is clean, Leaf(p), and has at least one potential parent.
//
//snapvet:hotpath
func (pr *Protocol) Broadcast(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if sp.Pif != C {
		return false
	}
	if p == pr.Root {
		for _, q := range c.G.Neighbors(p) {
			if st(c, q).Pif != C {
				return false
			}
		}
		return true
	}
	return pr.Leaf(c, p) && pr.hasPotential(c, p)
}

// ChangeFok implements the guard ChangeFok(p) (non-root only): a normal
// broadcasting processor whose flag differs from its parent's joins the Fok
// wave.
//
//snapvet:hotpath
func (pr *Protocol) ChangeFok(c *sim.Configuration, p int) bool {
	if p == pr.Root {
		return false
	}
	sp := st(c, p)
	return sp.Pif == B && pr.Normal(c, p) && sp.Fok != st(c, sp.Par).Fok
}

// Feedback implements the guard Feedback(p).
//
// Root: broadcasting, normal, no broadcasting neighbor, and Fok raised.
// Non-root: broadcasting, normal, BLeaf, and Fok raised.
//
//snapvet:hotpath
func (pr *Protocol) Feedback(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if sp.Pif != B || !sp.Fok || !pr.Normal(c, p) {
		return false
	}
	if p == pr.Root {
		return pr.BFree(c, p)
	}
	return pr.BLeaf(c, p)
}

// Cleaning implements the guard Cleaning(p).
//
// Root: in feedback and every neighbor is clean.
// Non-root: in feedback, normal, Leaf, and no broadcasting neighbor.
//
//snapvet:hotpath
func (pr *Protocol) Cleaning(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if sp.Pif != F {
		return false
	}
	if p == pr.Root {
		for _, q := range c.G.Neighbors(p) {
			if st(c, q).Pif != C {
				return false
			}
		}
		return true
	}
	return pr.Normal(c, p) && pr.Leaf(c, p) && pr.BFree(c, p)
}

// NewCount implements the guard NewCount(p): a normal broadcasting processor
// not yet in the Fok wave whose Count lags behind Sum.
//
// Root repair (found by the exhaustive model checker, see DESIGN.md §2 and
// internal/explore's TestPrintedGuardsDeadlock): the root must also be able
// to execute Count-action when Sum_r = N with Fok_r still lowered, even if
// Count_r = Sum_r. Otherwise a
// corrupted-but-locally-normal initial configuration with Count_r already
// equal to N deadlocks: the only statement that raises Fok_r is
// Count-action's "Fok_r := (Sum_r = N)", and its printed guard
// (Count < Sum) is false. In executions from the normal starting
// configuration the extra disjunct never fires first (Count_r lags Sum_r
// whenever Sum_r grows), so normal behavior is exactly the paper's.
//
//snapvet:hotpath
func (pr *Protocol) NewCount(c *sim.Configuration, p int) bool {
	sp := st(c, p)
	if sp.Pif != B || sp.Fok || !pr.Normal(c, p) {
		return false
	}
	sum := pr.Sum(c, p)
	if !pr.printedGuards && p == pr.Root && sum == pr.N && sp.Count == sum {
		return true
	}
	return sp.Count < sum
}

// AbnormalB implements the guard AbnormalB(p): broadcasting but not normal.
//
//snapvet:hotpath
func (pr *Protocol) AbnormalB(c *sim.Configuration, p int) bool {
	return st(c, p).Pif == B && !pr.Normal(c, p)
}

// AbnormalF implements the guard AbnormalF(p) (non-root only): in feedback
// but not normal.
//
//snapvet:hotpath
func (pr *Protocol) AbnormalF(c *sim.Configuration, p int) bool {
	return st(c, p).Pif == F && !pr.Normal(c, p)
}
