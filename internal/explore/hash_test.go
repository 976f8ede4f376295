package explore

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestAdmissibleAutomorphismCounts pins the admissible group on the
// acceptance topologies: the star's leaf permutations survive (singleton
// neighborhoods impose no order constraint), the triangle keeps its
// root-fixing swap, and the line is rigid.
func TestAdmissibleAutomorphismCounts(t *testing.T) {
	for _, tc := range []struct {
		build func(int) (*graph.Graph, error)
		n     int
		want  int
	}{
		{graph.Line, 3, 0},
		{graph.Ring, 3, 1}, // swap 1↔2
		{graph.Star, 4, 5}, // S_3 on the leaves minus identity
		{graph.Line, 4, 0},
	} {
		g := mustGraph(t, tc.build, tc.n)
		autos := admissibleAutomorphisms(g, 0)
		if len(autos) != tc.want {
			t.Errorf("%s: %d admissible automorphisms, want %d", g.Name(), len(autos), tc.want)
		}
		for _, a := range autos {
			if a.perm[0] != 0 {
				t.Errorf("%s: automorphism moves the root: %v", g.Name(), a.perm)
			}
			for old, nw := range a.perm {
				if a.inv[nw] != old {
					t.Errorf("%s: inverse broken for %v", g.Name(), a.perm)
				}
			}
		}
	}
}

// TestCompleteGraphRejectsOrderBreakers: on K_3 rooted at 0, the swap 1↔2
// is a graph automorphism but reverses the neighbor order inside p1's and
// p2's neighborhoods — wait, on K_3 every processor sees both others, so
// the swap maps p1's neighborhood {0,2} through π to {0,1}, preserving
// ascending order, and IS admissible; K_4 rooted at 0 is the interesting
// case: the 3-cycle (1 2 3) maps p1's neighbors {0,2,3} to {0,3,1} which
// breaks ascending order, so only order-preserving elements survive.
func TestCompleteGraphRejectsOrderBreakers(t *testing.T) {
	g := mustGraph(t, graph.Complete, 4)
	autos := admissibleAutomorphisms(g, 0)
	for _, a := range autos {
		for p := 1; p < g.N(); p++ {
			nb := g.Neighbors(p)
			for i := 1; i < len(nb); i++ {
				if a.perm[nb[i-1]] >= a.perm[nb[i]] {
					t.Fatalf("inadmissible automorphism %v accepted", a.perm)
				}
			}
		}
	}
}

// TestSymmetryReductionSoundOnStar: with symmetry on, the star explores
// strictly fewer states yet reaches the same verdict, and every concrete
// state's canonical key under any admissible relabeling matches its own
// (key is constant on orbits).
func TestSymmetryReductionSoundOnStar(t *testing.T) {
	g := mustGraph(t, graph.Star, 4)
	_, plain := run(t, g, Options{}, "faults:2")
	_, sym := run(t, g, Options{Symmetry: true}, "faults:2")
	if sym.Verdict != plain.Verdict {
		t.Fatalf("verdicts diverge: %q vs %q", sym.Verdict, plain.Verdict)
	}
	if sym.SymmetryAutos != 5 {
		t.Fatalf("SymmetryAutos = %d, want 5", sym.SymmetryAutos)
	}
	if sym.States >= plain.States {
		t.Fatalf("symmetry did not reduce: %d vs %d states", sym.States, plain.States)
	}
}

// TestKeyConstantOnOrbits: relabeling a configuration by an admissible
// automorphism must not change its canonical key.
func TestKeyConstantOnOrbits(t *testing.T) {
	g := mustGraph(t, graph.Star, 4)
	autos := admissibleAutomorphisms(g, 0)
	h := &hasher{lay: mustLayout(t, g, 1), autos: autos}
	states := []core.State{
		{Pif: core.B, Par: core.ParNone, L: 0, Count: 4},
		{Pif: core.B, Par: 0, L: 1, Count: 1, Fok: true},
		{Pif: core.C, Par: 0, L: 2, Count: 2},
		{Pif: core.F, Par: 0, L: 1, Count: 1, Msg: 1},
	}
	mon := monState{fed: 1 << 3, windows: 1}
	want := h.key(states, mon)
	for _, a := range autos {
		// Relabel: processor π(p) gets p's state (with parents mapped).
		relabeled := make([]core.State, len(states))
		var rmon monState
		rmon.windows = mon.windows
		for p, s := range states {
			if s.Par >= 0 {
				s.Par = a.perm[s.Par]
			}
			relabeled[a.perm[p]] = s
			if mon.fed&(1<<uint(p)) != 0 {
				rmon.fed |= 1 << uint(a.perm[p])
			}
		}
		if got := h.key(relabeled, rmon); got != want {
			t.Fatalf("key not constant on orbit of %v", a.perm)
		}
	}
}

// mustLayout returns the record layout of a search over the given number
// of instances of the protocol core.New builds on g rooted at 0.
func mustLayout(t *testing.T, g *graph.Graph, instances int, opts ...core.Option) layout {
	t.Helper()
	pr, err := core.New(g, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := newLayout(pr, instances)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestKeyBijectiveOnQuotient: over the ranges the layout derives from the
// instance, two different quotient states never collide (every field's
// first and last stored value shows up in the key), unpack inverts pack on
// every one of them, and the first value past each range is an error
// naming the processor and field, never a silently truncated record (in
// the wide key's 16 bits a level of 65,541 would be level 5). It runs on
// line-3 as built, on line-3 with the largest Lmax and N' the layout
// accepts (16-bit level and count fields), and on the record of a
// two-instance composition of line-3, which ends in two window bits.
func TestKeyBijectiveOnQuotient(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	for _, tc := range []struct {
		name      string
		instances int
		opts      []core.Option
		size      int // record bytes
	}{
		{"line-3", 1, nil, 5}, // 3 entries of 2+3+2+3+3 bits, 1 window bit
		{"line-3-widest", 1, []core.Option{core.WithLmax(0xfffe), core.WithNPrime(0xfffe)}, 16},
		{"two-instances", 2, nil, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr := core.MustNew(g, 0, tc.opts...)
			lay := mustLayout(t, g, tc.instances, tc.opts...)
			if lay.size != tc.size {
				t.Fatalf("record of %d bytes, want %d", lay.size, tc.size)
			}
			keyBijective(t, lay, pr, tc.instances)
		})
	}
}

// keyBijective runs TestKeyBijectiveOnQuotient on one layout of pr's
// network, a line of three processors.
func keyBijective(t *testing.T, lay layout, pr *core.Protocol, instances int) {
	h := &hasher{lay: lay}
	var base []core.State
	for range instances {
		base = append(base,
			core.State{Pif: core.B, Par: core.ParNone, Count: 1},
			core.State{Pif: core.B, Par: 0, L: 1, Count: 1},
			core.State{Pif: core.B, Par: 1, L: 2, Count: 1})
	}
	last := len(base) - 1
	type vec struct {
		states []core.State
		mon    monState
	}
	all := []vec{{base, monState{}}}
	for _, mutate := range []func(s *core.State){
		func(s *core.State) { s.Pif = 0 },
		func(s *core.State) { s.Pif = 3 },
		func(s *core.State) { s.Par = -2 },
		func(s *core.State) { s.Par = pr.N - 1 },
		func(s *core.State) { s.L = 0 },
		func(s *core.State) { s.L = pr.Lmax + 1 },
		func(s *core.State) { s.Count = 0 },
		func(s *core.State) { s.Count = pr.NPrime + 1 },
		func(s *core.State) { s.Fok = true },
		func(s *core.State) { s.Msg = 1 },
	} {
		v := append([]core.State(nil), base...)
		mutate(&v[last])
		all = append(all, vec{v, monState{}})
	}
	all = append(all,
		vec{base, monState{fed: 1}},
		vec{base, monState{fed: 1 << uint(last)}},
		vec{base, monState{windows: 1}})
	if instances > 1 {
		all = append(all, vec{base, monState{windows: 1<<uint(instances) - 1}})
	}
	seen := map[string]int{}
	for i, v := range all {
		k := h.key(v.states, v.mon)
		if j, ok := seen[k]; ok {
			t.Fatalf("vectors %d and %d collide", j, i)
		}
		seen[k] = i
		if len(k) != lay.size {
			t.Fatalf("key length %d, want %d", len(k), lay.size)
		}
		got := make([]core.State, len(base))
		if mon := lay.unpack([]byte(k), got); !reflect.DeepEqual(got, v.states) || mon != v.mon {
			t.Fatalf("vector %d decodes to %+v %+v, want %+v %+v", i, got, mon, v.states, v.mon)
		}
	}

	for _, tc := range []struct {
		mutate func(s *core.State)
		want   string
	}{
		{func(s *core.State) { s.Pif = 4 }, "p1 has phase 4 outside"},
		{func(s *core.State) { s.Par = -3 }, "p1 has parent -3 outside"},
		{func(s *core.State) { s.Par = pr.N }, fmt.Sprintf("p1 has parent %d outside", pr.N)},
		{func(s *core.State) { s.Par = 254 }, "p1 has parent 254"},
		{func(s *core.State) { s.L = -1 }, "p1 has level L=-1 outside"},
		{func(s *core.State) { s.L = pr.Lmax + 2 }, fmt.Sprintf("p1 has level L=%d outside", pr.Lmax+2)},
		{func(s *core.State) { s.L = 65541 }, "p1 has level L=65541"},
		{func(s *core.State) { s.Count = -1 }, "p1 has count -1 outside"},
		{func(s *core.State) { s.Count = pr.NPrime + 2 }, fmt.Sprintf("p1 has count %d outside", pr.NPrime+2)},
		{func(s *core.State) { s.Count = 1 << 16 }, "p1 has count 65536"},
	} {
		v := append([]core.State(nil), base...)
		tc.mutate(&v[1])
		if _, _, _, err := h.encode(v, monState{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("encode: err = %v, want %q", err, tc.want)
		}
	}
}

// TestCanonicalKeyAndFingerprintMatchWideKey pins the published contract
// the packed record keeps. For every node, the stored canonical key must
// decode to the orbit element whose wide key is the byte-wise least, and
// the fingerprint must be the XOR of FNV-1a over those wide keys,
// recomputed here term by term. ring-3 and star-4 have non-trivial groups;
// line-3 and ring-3 built WithLmax(300) reach levels of 256 and more, where
// the wide key's little-endian level bytes do not compare like the packed
// field. Both also start from the clean configuration with p1 at level
// 256: on ring-3, p1 and p2 then differ only in their levels 256 and 1, so
// the least packed record of that orbit is the other element's (of 2 of
// the 146 orbits in all). The pinned counts and fingerprints were measured
// with the 43-byte wide key as the stored record.
func TestCanonicalKeyAndFingerprintMatchWideKey(t *testing.T) {
	lmax300 := []core.Option{core.WithLmax(300)}
	for _, tc := range []struct {
		name        string
		build       func(int) (*graph.Graph, error)
		n           int
		opts        []core.Option
		states      int
		fingerprint string
		reordered   bool // some orbit's least packed record is not its least wide key's
	}{
		{"ring-3", graph.Ring, 3, nil, 138, "170e8d78d81e3ba9", false},
		{"star-4", graph.Star, 4, nil, 479, "cf3545ccd09013ff", false},
		{"line-3-lmax-300", graph.Line, 3, lmax300, 175, "e3114aa123c6fc45", false},
		{"ring-3-lmax-300", graph.Ring, 3, lmax300, 146, "dc0bd8aceda128c4", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGraph(t, tc.build, tc.n)
			inits, err := Inits("faults:2", g, 0, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.opts != nil {
				start, err := Inits("clean", g, 0, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				start[0][1].L = 256
				inits = append(inits, start[0])
			}
			e, err := New(g, 0, Options{POR: true, Symmetry: true, Workers: 2, CoreOptions: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(inits)
			if err != nil {
				t.Fatal(err)
			}
			states := make([]core.State, g.N())
			keyed := make([]core.State, g.N())
			var fp uint64
			wideLevels, reordered := 0, 0
			for id := int32(0); id < int32(e.store.len()); id++ {
				mon := e.store.decode(id, states)
				least := appendWideKey(nil, states, mon, nil, nil)
				leastPacked := e.store.record(id)
				for _, a := range e.autos {
					if cand := appendWideKey(nil, states, mon, a.perm, a.inv); bytes.Compare(cand, least) < 0 {
						least = cand
					}
					if cand := e.store.lay.pack(nil, states, mon, a.perm, a.inv); bytes.Compare(cand, leastPacked) < 0 {
						leastPacked = cand
					}
				}
				// The wide key is injective on the quotient, so equal wide
				// keys mean the very same vector and monitor.
				kmon := e.store.lay.unpack(e.store.key(id), keyed)
				if got := appendWideKey(nil, keyed, kmon, nil, nil); !bytes.Equal(got, least) {
					t.Fatalf("state %d: stored key decodes to wide key %v, the least wide key of its orbit is %v", id, got, least)
				}
				fp ^= sim.FNV1a(sim.FNVOffset, least)
				if !bytes.Equal(leastPacked, e.store.key(id)) {
					reordered++
				}
				if slices.ContainsFunc(states, func(s core.State) bool { return s.L >= 256 }) {
					wideLevels++
				}
			}
			if got := fmt.Sprintf("%016x", fp); got != res.Fingerprint {
				t.Fatalf("fingerprint %s, the XOR of FNV-1a over the wide keys is %s", res.Fingerprint, got)
			}
			if res.States != tc.states || res.Fingerprint != tc.fingerprint {
				t.Fatalf("%d states, fingerprint %s; want %d, %s", res.States, res.Fingerprint, tc.states, tc.fingerprint)
			}
			if tc.opts != nil && wideLevels == 0 {
				t.Fatal("no state reaches a level of 256")
			}
			if (reordered > 0) != tc.reordered {
				t.Fatalf("%d orbits whose least packed record is another element's; want some: %v", reordered, tc.reordered)
			}
			t.Logf("%d states, %d with a level of 256 or more, %d orbits ordered otherwise by packed records", res.States, wideLevels, reordered)
		})
	}
}

// key returns the canonical key of (states, mon) as a string; the vector
// must be encodable.
func (h *hasher) key(states []core.State, mon monState) string {
	_, key, _, err := h.encode(states, mon)
	if err != nil {
		panic(err)
	}
	return string(key)
}

// TestVisitedSetsEqualUnderRelabeledDiscoveryOrder: symmetry reduction off,
// the visited set must be identical whichever engine worker count ran —
// already covered — but with symmetry ON the reduction must still agree
// between worker counts (canonicalization is per-worker scratch state).
func TestSymmetryDeterministicAcrossWorkers(t *testing.T) {
	g := mustGraph(t, graph.Star, 4)
	e1, r1 := run(t, g, Options{Symmetry: true, Workers: 1}, "faults:2")
	e4, r4 := run(t, g, Options{Symmetry: true, Workers: 4}, "faults:2")
	if r1.States != r4.States || r1.Fingerprint != r4.Fingerprint {
		t.Fatalf("symmetry run diverged across workers: %+v vs %+v", r1, r4)
	}
	if !reflect.DeepEqual(e1.Visited(), e4.Visited()) {
		t.Fatal("visited sets diverge across workers")
	}
}
