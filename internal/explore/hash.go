package explore

import (
	"bytes"
	"fmt"
	"math/bits"

	"snappif/internal/core"
	"snappif/internal/graph"
)

// Record field widths that do not depend on the instance.
const (
	phaseBits = 2 // a core.Phase, in [0, 3]
	flagBits  = 3 // the wide key's flag bits, in its order
)

// layout is one search's record format: a node is stored as its record, a
// bit-packed encoding of its quotient vector and monitor whose field widths
// newLayout derives once per search from the instance. Each vector entry
// packs, MSB first and in the wide key's field order, its phase, parent+2
// in [0, N+1], level in [0, Lmax+1], count in [0, N'+1] and its three flag
// bits; one open-window bit per instance follows the last entry, and the
// last byte is zero-padded. The value past each domain — level Lmax+1,
// count N'+1 — keeps a state one step outside it storable (the planted
// level-overflow writes L = Lmax+1), so the domains check, not the encoder,
// reports it. The record is bijective on the explored quotient (unpack
// inverts pack): the explorer stores Msg ∈ {0,1} and Val = Agg = 0 (the
// payload extensions feed no guard, see monitor.go), and check refuses a
// vector whose field the layout cannot hold instead of truncating it.
type layout struct {
	maxPar, maxLevel, maxCount int // each field's largest stored value; parent from −2

	countMask, levelMask, parMask    uint64 // a field's value bits
	levelShift, parShift, phaseShift uint   // a field's offset from the entry's last bit
	entryBits                        uint   // bits per vector entry
	windowBits                       uint   // one per instance
	size                             int    // record bytes
}

// newLayout derives the record layout of a search over the given number of
// instances of pr (one, or k for a composition). It refuses an Lmax or N'
// whose extra value the wide key's 16-bit level and count fields cannot
// hold: the fingerprint is defined over that key.
func newLayout(pr *core.Protocol, instances int) (layout, error) {
	if pr.Lmax+1 > 0xffff || pr.NPrime+1 > 0xffff {
		return layout{}, fmt.Errorf("explore: Lmax=%d / N'=%d exceed the 16-bit key layout", pr.Lmax, pr.NPrime)
	}
	countBits := uint(bits.Len(uint(pr.NPrime + 1)))
	levelBits := uint(bits.Len(uint(pr.Lmax + 1)))
	parBits := uint(bits.Len(uint(pr.N + 1)))
	l := layout{
		maxPar:     pr.N - 1,
		maxLevel:   pr.Lmax + 1,
		maxCount:   pr.NPrime + 1,
		countMask:  1<<countBits - 1,
		levelMask:  1<<levelBits - 1,
		parMask:    1<<parBits - 1,
		levelShift: flagBits + countBits,
		parShift:   flagBits + countBits + levelBits,
		phaseShift: flagBits + countBits + levelBits + parBits,
		entryBits:  flagBits + countBits + levelBits + parBits + phaseBits,
		windowBits: uint(instances),
	}
	l.size = (instances*pr.N*int(l.entryBits) + instances + 7) / 8
	return l, nil
}

// check returns an error naming the first entry and field the record
// cannot hold.
//
//snapvet:hotpath
func (l *layout) check(states []core.State) error {
	for p := range states {
		s := &states[p]
		switch {
		case s.Pif > 3:
			return fmt.Errorf("explore: p%d has phase %d outside the stored range [0, 3]", p, int(s.Pif)) //snapvet:ok encoding failure, ends the search
		case s.Par < -2 || s.Par > l.maxPar:
			return fmt.Errorf("explore: p%d has parent %d outside the stored range [-2, %d]", p, s.Par, l.maxPar) //snapvet:ok encoding failure, ends the search
		case s.L < 0 || s.L > l.maxLevel:
			return fmt.Errorf("explore: p%d has level L=%d outside the stored range [0, %d]", p, s.L, l.maxLevel) //snapvet:ok encoding failure, ends the search
		case s.Count < 0 || s.Count > l.maxCount:
			return fmt.Errorf("explore: p%d has count %d outside the stored range [0, %d]", p, s.Count, l.maxCount) //snapvet:ok encoding failure, ends the search
		}
	}
	return nil
}

// flags returns the flag bits of processor p's state s: Fok, message bit,
// fed mark.
//
//snapvet:hotpath
func flags(s *core.State, mon monState, p int) byte {
	var f byte
	if s.Fok {
		f |= 1
	}
	if s.Msg != 0 {
		f |= 2
	}
	if mon.fed&(1<<uint(p)) != 0 {
		f |= 4
	}
	return f
}

// relabeled returns the processor whose state position q of a key encodes
// under the relabeling perm (nil = identity, inv its inverse), and that
// state's parent mapped through perm.
//
//snapvet:hotpath
func relabeled(states []core.State, perm, inv []int, q int) (p, par int) {
	p = q
	if inv != nil {
		p = inv[q]
	}
	par = states[p].Par
	if perm != nil && par >= 0 && par < len(perm) {
		par = perm[par]
	}
	return p, par
}

// pack appends the record of (states, mon) under the processor relabeling
// perm (nil = identity): position q encodes the state of processor inv[q],
// with parent pointers mapped through perm. The vector must pass check.
//
// Every shift in pack and unpack is below 64; masking its count with 63
// tells the compiler so, and it emits a bare shift.
//
//snapvet:hotpath
func (l *layout) pack(b []byte, states []core.State, mon monState, perm, inv []int) []byte {
	var acc uint64 // pending bits, the last n of them not yet appended
	var n uint
	for q := range states {
		p, par := relabeled(states, perm, inv, q)
		s := &states[p]
		acc = acc<<(l.entryBits&63) | uint64(s.Pif)<<(l.phaseShift&63) | uint64(par+2)<<(l.parShift&63) |
			uint64(s.L)<<(l.levelShift&63) | uint64(s.Count)<<flagBits | uint64(flags(s, mon, p))
		for n += l.entryBits; n >= 8; n -= 8 {
			b = append(b, byte(acc>>((n-8)&63)))
		}
	}
	acc = acc<<(l.windowBits&63) | uint64(mon.windows)
	for n += l.windowBits; n >= 8; n -= 8 {
		b = append(b, byte(acc>>((n-8)&63)))
	}
	if n > 0 {
		b = append(b, byte(acc<<((8-n)&63)))
	}
	return b
}

// unpack inverts pack under the identity: it writes the vector of rec into
// states (one per entry) and returns the monitor. Msg comes back as its bit
// and Val, Agg as zero, so the vector is the quotient image of the one
// packed.
//
//snapvet:hotpath
func (l *layout) unpack(rec []byte, states []core.State) monState {
	var mon monState
	var acc uint64 // loaded bits, the last n of them not yet read
	var n uint
	i := 0
	for p := range states {
		for ; n < l.entryBits; n += 8 {
			acc = acc<<8 | uint64(rec[i])
			i++
		}
		n -= l.entryBits
		v := acc >> (n & 63)
		states[p] = core.State{
			Pif:   core.Phase(v >> (l.phaseShift & 63) & (1<<phaseBits - 1)),
			Par:   int(v>>(l.parShift&63)&l.parMask) - 2,
			L:     int(v >> (l.levelShift & 63) & l.levelMask),
			Count: int(v >> flagBits & l.countMask),
			Fok:   v&1 != 0,
			Msg:   v >> 1 & 1,
		}
		if v&4 != 0 {
			mon.fed |= 1 << uint(p)
		}
	}
	for ; n < l.windowBits; n += 8 {
		acc = acc<<8 | uint64(rec[i])
		i++
	}
	mon.windows = uint8(acc >> ((n - l.windowBits) & 63) & (1<<(l.windowBits&63) - 1))
	return mon
}

// appendWideKey appends the wide key of (states, mon) under the processor
// relabeling perm (nil = identity), position for position as pack. The
// wide key does not depend on the instance, and two published contracts
// are defined over it: the canonical order under symmetry and the
// fingerprint in explore.json. It is 7 bytes per vector entry — phase,
// parent+2, level (2 bytes, little-endian), count (2 bytes), flags (bit 0
// Fok, bit 1 message bit, bit 2 fed mark) — followed by one byte of open
// windows, bit i for instance i.
//
//snapvet:hotpath
func appendWideKey(b []byte, states []core.State, mon monState, perm, inv []int) []byte {
	for q := range states {
		p, par := relabeled(states, perm, inv, q)
		s := &states[p]
		b = append(b, byte(s.Pif), byte(par+2),
			byte(s.L), byte(s.L>>8), byte(s.Count), byte(s.Count>>8), flags(s, mon, p))
	}
	b = append(b, mon.windows)
	return b
}

// hasher encodes vectors with private scratch buffers; each worker keeps
// one, so encoding, canonicalization and hashing run inside the parallel
// phase.
type hasher struct {
	lay   layout
	autos []automorphism
	rec   []byte
	cand  []byte
	best  []byte
}

// encode checks states against the layout and encodes (states, mon): rec
// is the identity record, key the canonical key (rec itself when the group
// is trivial) and hash its indexHash. rec and key alias the hasher's
// scratch until the next call.
//
//snapvet:hotpath
func (h *hasher) encode(states []core.State, mon monState) (rec, key []byte, hash uint64, err error) {
	if err := h.lay.check(states); err != nil {
		return nil, nil, 0, err
	}
	h.rec = h.lay.pack(h.rec[:0], states, mon, nil, nil)
	key = h.rec
	if len(h.autos) > 0 {
		key = h.canonical(states, mon)
	}
	return h.rec, key, indexHash(key), nil
}

// canonical returns the canonical key of (states, mon): the record of the
// orbit element under the admissible group whose wide key is least. The
// order is the wide key's because the packed fields compare like it only
// while every level and count is below 256, where the wide key's
// little-endian high bytes are zero.
//
//snapvet:hotpath
func (h *hasher) canonical(states []core.State, mon monState) []byte {
	h.best = appendWideKey(h.best[:0], states, mon, nil, nil)
	var least *automorphism
	for i := range h.autos {
		a := &h.autos[i]
		h.cand = appendWideKey(h.cand[:0], states, mon, a.perm, a.inv)
		if bytes.Compare(h.cand, h.best) < 0 {
			h.best, h.cand = h.cand, h.best
			least = a
		}
	}
	if least == nil {
		return h.rec
	}
	h.cand = h.lay.pack(h.cand[:0], states, mon, least.perm, least.inv)
	return h.cand
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
