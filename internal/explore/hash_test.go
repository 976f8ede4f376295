package explore

import (
	"reflect"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
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
	h := &hasher{autos: autos}
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

// TestKeyBijectiveOnQuotient: two different quotient states never collide
// (spot check: every field difference shows up in the key), decodeRecord
// inverts the encoding on every one of them, and a field the record cannot
// hold is an error naming the processor and field, never a silently
// truncated key (a level of 65,541 would get the key of level 5).
func TestKeyBijectiveOnQuotient(t *testing.T) {
	h := &hasher{}
	base := []core.State{
		{Pif: core.B, Par: core.ParNone, Count: 1},
		{Pif: core.B, Par: 0, L: 1, Count: 1},
		{Pif: core.B, Par: 1, L: 2, Count: 1},
	}
	type vec struct {
		states []core.State
		mon    monState
	}
	all := []vec{{base, monState{}}}
	for _, mutate := range []func(s *core.State){
		func(s *core.State) { s.Pif = core.F },
		func(s *core.State) { s.Par = 0 },
		func(s *core.State) { s.L = 7 },
		func(s *core.State) { s.L = 65535 },
		func(s *core.State) { s.Count = 300 },
		func(s *core.State) { s.Count = 0 },
		func(s *core.State) { s.Fok = true },
		func(s *core.State) { s.Msg = 1 },
	} {
		v := append([]core.State(nil), base...)
		mutate(&v[2])
		all = append(all, vec{v, monState{}})
	}
	all = append(all, vec{base, monState{fed: 1 << 1}}, vec{base, monState{windows: 1}})
	seen := map[string]int{}
	for i, v := range all {
		k := h.key(v.states, v.mon)
		if j, ok := seen[k]; ok {
			t.Fatalf("vectors %d and %d collide", j, i)
		}
		seen[k] = i
		if len(k) != keyBytesPerProc*len(base)+1 {
			t.Fatalf("key length %d, want %d", len(k), keyBytesPerProc*len(base)+1)
		}
		got := make([]core.State, len(base))
		if mon := decodeRecord([]byte(k), got); !reflect.DeepEqual(got, v.states) || mon != v.mon {
			t.Fatalf("vector %d decodes to %+v %+v, want %+v %+v", i, got, mon, v.states, v.mon)
		}
	}

	for _, tc := range []struct {
		mutate func(s *core.State)
		want   string
	}{
		{func(s *core.State) { s.L = 65541 }, "p1 has level L=65541"},
		{func(s *core.State) { s.L = -1 }, "p1 has level L=-1"},
		{func(s *core.State) { s.Count = 1 << 16 }, "p1 has count 65536"},
		{func(s *core.State) { s.Par = 254 }, "p1 has parent 254"},
		{func(s *core.State) { s.Par = -3 }, "p1 has parent -3"},
	} {
		v := append([]core.State(nil), base...)
		tc.mutate(&v[1])
		if _, _, _, err := h.encode(v, monState{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("encode: err = %v, want %q", err, tc.want)
		}
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
