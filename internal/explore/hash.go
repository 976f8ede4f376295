package explore

import (
	"bytes"
	"fmt"

	"snappif/internal/core"
	"snappif/internal/graph"
)

// Key layout: 7 bytes per vector entry — phase, parent+2, level (2 bytes,
// little-endian), count (2 bytes), flags (bit 0 Fok, bit 1 message bit,
// bit 2 fed-mark) — followed by one byte of open windows, bit i for
// instance i (so 0 or 1 for a single protocol). The encoding is
// bijective on the explored quotient (decodeRecord inverts it): the
// explorer stores Msg ∈ {0,1} and Val = Agg = 0 (the payload extensions
// feed no guard, see monitor.go), and checkEncodable refuses a vector whose
// parent, level or count the layout cannot hold instead of truncating it.
const keyBytesPerProc = 7

// appendKey appends the canonical encoding of (states, mon) under the
// processor relabeling perm (nil = identity): position q of the key encodes
// the state of processor inv[q], with parent pointers mapped through perm.
//
//snapvet:hotpath
func appendKey(b []byte, states []core.State, mon monState, perm, inv []int) []byte {
	for q := range states {
		p := q
		if inv != nil {
			p = inv[q]
		}
		s := &states[p]
		par := s.Par
		if perm != nil && par >= 0 && par < len(perm) {
			par = perm[par]
		}
		var flags byte
		if s.Fok {
			flags |= 1
		}
		if s.Msg != 0 {
			flags |= 2
		}
		if mon.fed&(1<<uint(p)) != 0 {
			flags |= 4
		}
		b = append(b, byte(s.Pif), byte(par+2),
			byte(s.L), byte(s.L>>8), byte(s.Count), byte(s.Count>>8), flags)
	}
	b = append(b, mon.windows)
	return b
}

// decodeRecord inverts the identity encoding: it writes the vector of rec
// into states (one per processor) and returns the monitor. Msg comes back
// as its bit and Val, Agg as zero, so the vector is the quotient image of
// the one encoded.
//
//snapvet:hotpath
func decodeRecord(rec []byte, states []core.State) monState {
	var mon monState
	for p := range states {
		b := rec[p*keyBytesPerProc : (p+1)*keyBytesPerProc]
		states[p] = core.State{
			Pif:   core.Phase(b[0]),
			Par:   int(b[1]) - 2,
			L:     int(b[2]) | int(b[3])<<8,
			Count: int(b[4]) | int(b[5])<<8,
			Fok:   b[6]&1 != 0,
			Msg:   uint64(b[6] >> 1 & 1),
		}
		if b[6]&4 != 0 {
			mon.fed |= 1 << uint(p)
		}
	}
	mon.windows = rec[len(rec)-1]
	return mon
}

// checkEncodable returns an error naming the first processor and field the
// record cannot hold: a level or count outside [0, 65535], or a parent
// outside [-2, 253] (the byte parent+2).
//
//snapvet:hotpath
func checkEncodable(states []core.State) error {
	for p := range states {
		s := &states[p]
		switch {
		case s.L < 0 || s.L > 0xffff:
			return fmt.Errorf("explore: p%d has level L=%d outside the stored range [0, 65535]", p, s.L) //snapvet:ok encoding failure, ends the search
		case s.Count < 0 || s.Count > 0xffff:
			return fmt.Errorf("explore: p%d has count %d outside the stored range [0, 65535]", p, s.Count) //snapvet:ok encoding failure, ends the search
		case s.Par < -2 || s.Par > 0xff-2:
			return fmt.Errorf("explore: p%d has parent %d outside the stored range [-2, 253]", p, s.Par) //snapvet:ok encoding failure, ends the search
		}
	}
	return nil
}

// hasher encodes vectors with private scratch buffers; each worker keeps
// one, so encoding, canonicalization and hashing run inside the parallel
// phase.
type hasher struct {
	autos []automorphism
	rec   []byte
	cand  []byte
	best  []byte
}

// encode checks states with checkEncodable and encodes (states, mon): rec
// is the identity record, key the minimal key over the admissible
// automorphism group (rec itself when the group is trivial) and hash its
// indexHash. rec and key alias the hasher's scratch until the next call.
//
//snapvet:hotpath
func (h *hasher) encode(states []core.State, mon monState) (rec, key []byte, hash uint64, err error) {
	if err := checkEncodable(states); err != nil {
		return nil, nil, 0, err
	}
	h.rec = appendKey(h.rec[:0], states, mon, nil, nil)
	key = h.rec
	if len(h.autos) > 0 {
		h.best = append(h.best[:0], h.rec...)
		for i := range h.autos {
			a := &h.autos[i]
			h.cand = appendKey(h.cand[:0], states, mon, a.perm, a.inv)
			if bytes.Compare(h.cand, h.best) < 0 {
				h.best, h.cand = h.cand, h.best
			}
		}
		key = h.best
	}
	return h.rec, key, indexHash(key), nil
}

// automorphism is one admissible relabeling: perm maps old IDs to new,
// inv is its inverse.
type automorphism struct {
	perm []int
	inv  []int
}

// maxSymmetryN bounds the brute-force automorphism search ((n-1)!
// candidate permutations).
const maxSymmetryN = 8

// admissibleAutomorphisms enumerates the non-identity root-fixing graph
// automorphisms that are additionally order-preserving on every non-root
// processor's neighborhood: for every non-root p and neighbors q1 < q2 of
// p, π(q1) < π(q2).
//
// Plain graph automorphisms are NOT sound for this protocol: the B-action's
// parent choice min_{≺p}(Potential_p) tie-breaks by the local neighbor
// order ≺p (ascending ID), so a relabeling that reverses two candidate
// parents changes which parent the image processor adopts — π would be a
// graph automorphism but not a transition-system automorphism. Order
// preservation on each non-root neighborhood makes the min commute with π
// on every subset of Neig_p; every other guard and statement of Algorithms
// 1 and 2 is defined through neighbor-set membership and is relabeling-
// invariant, and the wave monitor commutes because fed-marks relabel
// pointwise and the root (the only processor with global monitor effects)
// is fixed. See DESIGN.md §10 for the full argument.
//
// The order-preserving subgroup is exactly what makes the star profitable
// (leaves have singleton neighborhoods, so all leaf permutations are
// admissible) while staying sound on every topology.
func admissibleAutomorphisms(g *graph.Graph, root int) []automorphism {
	n := g.N()
	if n > maxSymmetryN {
		return nil
	}
	perm := make([]int, n)
	used := make([]bool, n)
	for i := range perm {
		perm[i] = -1
	}
	perm[root] = root
	used[root] = true
	var out []automorphism
	var rec func(p int)
	rec = func(p int) {
		if p == n {
			if isAdmissible(g, root, perm) {
				cp := append([]int(nil), perm...)
				inv := make([]int, n)
				for old, nw := range cp {
					inv[nw] = old
				}
				out = append(out, automorphism{perm: cp, inv: inv})
			}
			return
		}
		if p == root {
			rec(p + 1)
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			perm[p] = v
			used[v] = true
			rec(p + 1)
			perm[p] = -1
			used[v] = false
		}
	}
	rec(0)
	return out
}

// isAdmissible checks a complete candidate permutation: identity excluded,
// edges preserved, neighbor order preserved at every non-root processor.
func isAdmissible(g *graph.Graph, root int, perm []int) bool {
	identity := true
	for p, v := range perm {
		if p != v {
			identity = false
			break
		}
	}
	if identity {
		return false
	}
	for p := 0; p < g.N(); p++ {
		nb := g.Neighbors(p)
		for i, q := range nb {
			if !g.HasEdge(perm[p], perm[q]) {
				return false
			}
			if p != root && i > 0 && perm[nb[i-1]] >= perm[q] {
				return false
			}
		}
	}
	return true
}
