package graph_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"snappif/internal/graph"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{name: "zero nodes", n: 0},
		{name: "negative node in edge", n: 3, edges: [][2]int{{-1, 0}, {0, 1}, {1, 2}}},
		{name: "node out of range", n: 3, edges: [][2]int{{0, 3}, {0, 1}, {1, 2}}},
		{name: "self loop", n: 2, edges: [][2]int{{0, 0}, {0, 1}}},
		{name: "duplicate edge", n: 2, edges: [][2]int{{0, 1}, {1, 0}}},
		{name: "disconnected", n: 4, edges: [][2]int{{0, 1}, {2, 3}}},
		{name: "isolated node", n: 3, edges: [][2]int{{0, 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := graph.New("bad", tt.n, tt.edges); err == nil {
				t.Fatalf("New accepted invalid graph n=%d edges=%v", tt.n, tt.edges)
			}
		})
	}
}

func TestSingletonGraph(t *testing.T) {
	g, err := graph.New("single", 1, nil)
	if err != nil {
		t.Fatalf("singleton rejected: %v", err)
	}
	if g.N() != 1 || g.M() != 0 || g.Diameter() != 0 {
		t.Fatalf("singleton: N=%d M=%d diam=%d", g.N(), g.M(), g.Diameter())
	}
}

func TestBuilderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		build    func() (*graph.Graph, error)
		wantN    int
		wantM    int
		wantDiam int
	}{
		{func() (*graph.Graph, error) { return graph.Line(5) }, 5, 4, 4},
		{func() (*graph.Graph, error) { return graph.Ring(6) }, 6, 6, 3},
		{func() (*graph.Graph, error) { return graph.Star(7) }, 7, 6, 2},
		{func() (*graph.Graph, error) { return graph.Complete(5) }, 5, 10, 1},
		{func() (*graph.Graph, error) { return graph.Grid(3, 4) }, 12, 17, 5},
		{func() (*graph.Graph, error) { return graph.Torus(3, 3) }, 9, 18, 2},
		{func() (*graph.Graph, error) { return graph.Hypercube(4) }, 16, 32, 4},
		{func() (*graph.Graph, error) { return graph.BinaryTree(7) }, 7, 6, 4},
		{func() (*graph.Graph, error) { return graph.Caterpillar(3, 2) }, 9, 8, 4},
		{func() (*graph.Graph, error) { return graph.Lollipop(4, 3) }, 7, 9, 4},
		{func() (*graph.Graph, error) { return graph.RandomTree(10, rng) }, 10, 9, -1},
		{func() (*graph.Graph, error) { return graph.Wheel(7) }, 7, 12, 2},
		{func() (*graph.Graph, error) { return graph.Circulant(8, []int{1, 2}) }, 8, 16, 2},
		{func() (*graph.Graph, error) { return graph.Barbell(3, 2) }, 8, 9, 5},
		{func() (*graph.Graph, error) { return graph.CompleteBipartite(2, 3) }, 5, 6, 2},
		{func() (*graph.Graph, error) { return graph.KaryTree(3, 13) }, 13, 12, 4},
	}
	for _, tt := range tests {
		g, err := tt.build()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(g.Name(), func(t *testing.T) {
			if g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", g.N(), tt.wantN)
			}
			if g.M() != tt.wantM {
				t.Errorf("M = %d, want %d", g.M(), tt.wantM)
			}
			if tt.wantDiam >= 0 {
				if d := g.Diameter(); d != tt.wantDiam {
					t.Errorf("diameter = %d, want %d", d, tt.wantDiam)
				}
			}
		})
	}
}

func TestBuilderRejections(t *testing.T) {
	cases := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Ring(2) },
		func() (*graph.Graph, error) { return graph.Grid(0, 3) },
		func() (*graph.Graph, error) { return graph.Torus(2, 3) },
		func() (*graph.Graph, error) { return graph.Hypercube(0) },
		func() (*graph.Graph, error) { return graph.Hypercube(21) },
		func() (*graph.Graph, error) { return graph.Caterpillar(0, 1) },
		func() (*graph.Graph, error) { return graph.Lollipop(2, 1) },
		func() (*graph.Graph, error) { return graph.Lollipop(3, 0) },
		func() (*graph.Graph, error) {
			return graph.RandomConnected(0, 0.5, rand.New(rand.NewSource(1)))
		},
		func() (*graph.Graph, error) {
			return graph.RandomConnected(5, 1.5, rand.New(rand.NewSource(1)))
		},
		func() (*graph.Graph, error) { return graph.Line(0) },
		func() (*graph.Graph, error) { return graph.Wheel(3) },
		func() (*graph.Graph, error) { return graph.Circulant(2, []int{1}) },
		func() (*graph.Graph, error) { return graph.Circulant(8, []int{0}) },
		func() (*graph.Graph, error) { return graph.Circulant(8, []int{5}) },
		func() (*graph.Graph, error) { return graph.Barbell(2, 1) },
		func() (*graph.Graph, error) { return graph.CompleteBipartite(0, 3) },
		func() (*graph.Graph, error) { return graph.KaryTree(1, 5) },
	}
	for i, build := range cases {
		if _, err := build(); err == nil {
			t.Errorf("case %d: invalid parameters accepted", i)
		}
	}
}

func TestNeighborsSortedAndConsistent(t *testing.T) {
	g, err := graph.RandomConnected(20, 0.3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.N(); p++ {
		nb := g.Neighbors(p)
		if !sort.IntsAreSorted(nb) {
			t.Fatalf("neighbors of %d not sorted: %v", p, nb)
		}
		for _, q := range nb {
			if !g.HasEdge(p, q) || !g.HasEdge(q, p) {
				t.Fatalf("edge (%d,%d) not symmetric", p, q)
			}
		}
		if g.Degree(p) != len(nb) {
			t.Fatalf("degree mismatch at %d", p)
		}
		if g.HasEdge(p, p) {
			t.Fatalf("self edge reported at %d", p)
		}
	}
}

// TestZeroGraphEmpty: the zero value is the empty graph.
func TestZeroGraphEmpty(t *testing.T) {
	var g graph.Graph
	if g.N() != 0 || g.M() != 0 || len(g.Edges()) != 0 {
		t.Fatalf("zero Graph: N=%d M=%d edges=%v, want an empty graph", g.N(), g.M(), g.Edges())
	}
}

// TestNeighborsCapacityCapped: every adjacency list is a window into one
// array shared by all nodes, so its capacity must end where the list does.
// An append to one list then copies it instead of overwriting the next
// node's list.
func TestNeighborsCapacityCapped(t *testing.T) {
	for _, mk := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(5) },
		func() (*graph.Graph, error) { return graph.Star(6) },
		func() (*graph.Graph, error) { return graph.Grid(3, 4) },
		func() (*graph.Graph, error) { return graph.RandomSparse(200, 50, rand.New(rand.NewSource(7))) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < g.N(); p++ {
			if nb := g.Neighbors(p); cap(nb) != len(nb) {
				t.Fatalf("%s: Neighbors(%d) has len %d, cap %d", g.Name(), p, len(nb), cap(nb))
			}
		}
		next := append([]int(nil), g.Neighbors(1)...)
		_ = append(g.Neighbors(0), -1)
		if !reflect.DeepEqual(g.Neighbors(1), next) {
			t.Fatalf("%s: appending to Neighbors(0) changed Neighbors(1) from %v to %v", g.Name(), next, g.Neighbors(1))
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g, err := graph.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.M())
	}
	g2, err := graph.New("copy", g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("round trip lost edges: %d vs %d", g2.M(), g.M())
	}
}

func TestBFSAndEccentricity(t *testing.T) {
	g, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("BFS(0)[%d] = %d, want %d", i, d, i)
		}
	}
	if e := g.Eccentricity(2); e != 3 {
		t.Fatalf("ecc(2) = %d, want 3", e)
	}
	if e := g.Eccentricity(0); e != 5 {
		t.Fatalf("ecc(0) = %d, want 5", e)
	}
}

func TestBFSTreeProperties(t *testing.T) {
	g, err := graph.RandomConnected(25, 0.2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	parent := g.BFSTree(4)
	dist := g.BFS(4)
	for p := 0; p < g.N(); p++ {
		if p == 4 {
			if parent[p] != -1 {
				t.Fatalf("root parent = %d, want -1", parent[p])
			}
			continue
		}
		if !g.HasEdge(p, parent[p]) {
			t.Fatalf("tree edge (%d,%d) not in graph", p, parent[p])
		}
		if dist[p] != dist[parent[p]]+1 {
			t.Fatalf("BFS tree not shortest-path at %d", p)
		}
	}
}

func TestChordlessPathChecks(t *testing.T) {
	g, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		path []int
		want bool
	}{
		{path: []int{0, 1, 2}, want: true},
		{path: []int{0, 1, 2, 3}, want: true},
		{path: []int{0}, want: true},
		{path: nil, want: true},
		{path: []int{0, 2}, want: false},             // not adjacent
		{path: []int{0, 1, 0}, want: false},          // repeated node
		{path: []int{5, 0, 1, 2, 3, 4}, want: false}, // chord 5–4 closes the ring
	}
	for _, tt := range tests {
		if got := g.IsChordlessPath(tt.path); got != tt.want {
			t.Errorf("IsChordlessPath(%v) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

func TestLongestChordlessPath(t *testing.T) {
	line, err := graph.Line(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := line.LongestChordlessPathFrom(0); got != 6 {
		t.Errorf("line LCP from end = %d, want 6", got)
	}
	ring, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	// On a cycle the longest chordless path from any node is n-2 edges
	// (going almost all the way around closes a chord with the start).
	if got := ring.LongestChordlessPathFrom(0); got != 4 {
		t.Errorf("ring-6 LCP = %d, want 4", got)
	}
	comp, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.LongestChordlessPathFrom(0); got != 1 {
		t.Errorf("K5 LCP = %d, want 1", got)
	}
}

func TestDegreeStats(t *testing.T) {
	g, err := graph.Star(6)
	if err != nil {
		t.Fatal(err)
	}
	minDeg, maxDeg, avg := g.DegreeStats()
	if minDeg != 1 || maxDeg != 5 {
		t.Fatalf("degree stats = (%d,%d), want (1,5)", minDeg, maxDeg)
	}
	if avg != 2*float64(g.M())/float64(g.N()) {
		t.Fatalf("avg degree = %v", avg)
	}
}

func TestDOTOutput(t *testing.T) {
	g, err := graph.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{"graph \"line-3\"", "0 -- 1;", "1 -- 2;"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// Property: RandomConnected always yields a connected simple graph whose
// node count and neighbor symmetry hold, for any seed and density.
func TestRandomConnectedProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%40) + 1
		p := float64(pRaw) / 255
		g, err := graph.RandomConnected(n, p, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if g.N() != n {
			return false
		}
		// Connectivity: BFS reaches everything.
		for _, d := range g.BFS(0) {
			if d < 0 {
				return false
			}
		}
		// Symmetry.
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the BFS tree of any random graph is a spanning tree (N-1 edges,
// all nodes reach the root).
func TestBFSTreeSpansProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		g, err := graph.RandomConnected(n, 0.2, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		root := int(seed%int64(n)+int64(n)) % n
		parent := g.BFSTree(root)
		for p := 0; p < n; p++ {
			cur, hops := p, 0
			for cur != root {
				cur = parent[cur]
				hops++
				if hops > n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid graph")
		}
	}()
	graph.MustNew("bad", 2, nil) // disconnected
}

func TestRandomSparse(t *testing.T) {
	for _, tc := range []struct{ n, extra int }{
		{1, 0}, {2, 0}, {10, 0}, {10, 15}, {500, 1000},
	} {
		rng := rand.New(rand.NewSource(7))
		g, err := graph.RandomSparse(tc.n, tc.extra, rng)
		if err != nil {
			t.Fatalf("RandomSparse(%d,%d): %v", tc.n, tc.extra, err)
		}
		if g.N() != tc.n {
			t.Fatalf("RandomSparse(%d,%d): N=%d", tc.n, tc.extra, g.N())
		}
		if g.M() < tc.n-1 || g.M() > tc.n-1+tc.extra {
			t.Fatalf("RandomSparse(%d,%d): M=%d outside [n-1, n-1+extra]", tc.n, tc.extra, g.M())
		}
		// Determinism: the same stream rebuilds the same graph.
		g2, err := graph.RandomSparse(tc.n, tc.extra, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Fatalf("RandomSparse(%d,%d) not deterministic", tc.n, tc.extra)
		}
	}
	if _, err := graph.RandomSparse(0, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("RandomSparse accepted n=0")
	}
	if _, err := graph.RandomSparse(3, -1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("RandomSparse accepted extra=-1")
	}
}

// TestRandomSparseEdgesMatchPairSort pins RandomSparse's packed-key sort to
// the pair sort it replaced: for several sizes and seeds the edge list is the
// one that drawing the same stream, sorting [2]int pairs lexicographically and
// dropping duplicates gives.
func TestRandomSparseEdgesMatchPairSort(t *testing.T) {
	pairSort := func(n, extra int, rng *rand.Rand) [][2]int {
		var edges [][2]int
		add := func(u, v int) {
			if u > v {
				u, v = v, u
			}
			edges = append(edges, [2]int{u, v})
		}
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			add(perm[i], perm[rng.Intn(i)])
		}
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				add(u, v)
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
		uniq := edges[:0]
		for i, e := range edges {
			if i == 0 || e != edges[i-1] {
				uniq = append(uniq, e)
			}
		}
		return uniq
	}
	for _, tc := range []struct{ n, extra int }{
		{2, 0}, {10, 15}, {64, 16}, {1000, 250}, {5000, 20000}, {100_000, 25_000},
	} {
		for _, seed := range []int64{1, 2, 101} {
			g, err := graph.RandomSparse(tc.n, tc.extra, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want := pairSort(tc.n, tc.extra, rand.New(rand.NewSource(seed)))
			if got := g.Edges(); !reflect.DeepEqual(got, want) {
				t.Fatalf("RandomSparse(%d, %d, seed %d): %d edges differ from the pair sort's %d", tc.n, tc.extra, seed, len(got), len(want))
			}
		}
	}
}
