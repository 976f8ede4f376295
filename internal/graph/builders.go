package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// This file provides the topology families used throughout the experiment
// harness. Each builder returns a connected simple graph and encodes one of
// the shapes that stress different aspects of the algorithm:
//
//   - Line / ring: maximal diameter, h ≈ N (worst case for 5h+5).
//   - Star / complete: minimal diameter; complete graphs exercise the
//     chordless-ParentPath property hardest (h stays 1 despite N-1 neighbors).
//   - Grid / torus / hypercube: intermediate diameter, many equal-level
//     parent candidates (exercises the min ≺_p tie-break).
//   - Trees / caterpillars: the tree-network special case the earlier
//     snap-stabilizing PIF papers [7,9] cover.
//   - Lollipop: clique + tail, mixes both regimes in one network.
//   - Random connected / random tree: the "arbitrary network" of the title.

// Line returns the path graph 0-1-…-(n-1).
func Line(n int) (*Graph, error) {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return New(fmt.Sprintf("line-%d", n), n, edges)
}

// Ring returns the cycle graph on n ≥ 3 nodes.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs n ≥ 3, got %d", n)
	}
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return New(fmt.Sprintf("ring-%d", n), n, edges)
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) (*Graph, error) {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return New(fmt.Sprintf("star-%d", n), n, edges)
}

// Complete returns K_n.
func Complete(n int) (*Graph, error) {
	edges := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return New(fmt.Sprintf("complete-%d", n), n, edges)
}

// Grid returns the rows×cols 2-D mesh.
func Grid(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: grid needs positive dims, got %d×%d", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return New(fmt.Sprintf("grid-%dx%d", rows, cols), rows*cols, edges)
}

// Torus returns the rows×cols 2-D torus (mesh with wraparound); both
// dimensions must be ≥ 3 to keep the graph simple.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: torus needs dims ≥ 3, got %d×%d", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges, [2]int{id(r, c), id(r, (c+1)%cols)})
			edges = append(edges, [2]int{id(r, c), id((r+1)%rows, c)})
		}
	}
	return New(fmt.Sprintf("torus-%dx%d", rows, cols), rows*cols, edges)
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 20 {
		return nil, fmt.Errorf("graph: hypercube dim must be in [1,20], got %d", dim)
	}
	n := 1 << dim
	var edges [][2]int
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return New(fmt.Sprintf("hypercube-%d", dim), n, edges)
}

// BinaryTree returns the complete binary tree with n nodes (heap layout:
// node i has children 2i+1 and 2i+2).
func BinaryTree(n int) (*Graph, error) {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{(i - 1) / 2, i})
	}
	return New(fmt.Sprintf("bintree-%d", n), n, edges)
}

// Caterpillar returns a spine of length spine with legs leaves hanging off
// every spine node: the worst-case tree family in the tree-PIF literature.
func Caterpillar(spine, legs int) (*Graph, error) {
	if spine < 1 || legs < 0 {
		return nil, fmt.Errorf("graph: caterpillar needs spine ≥ 1, legs ≥ 0, got %d,%d", spine, legs)
	}
	n := spine * (1 + legs)
	var edges [][2]int
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, [2]int{i, next})
			next++
		}
	}
	return New(fmt.Sprintf("caterpillar-%dx%d", spine, legs), n, edges)
}

// Lollipop returns K_clique with a path of tail extra nodes attached to
// node 0: it mixes a dense region (h small) with a long chordless tail.
func Lollipop(clique, tail int) (*Graph, error) {
	if clique < 3 || tail < 1 {
		return nil, fmt.Errorf("graph: lollipop needs clique ≥ 3, tail ≥ 1, got %d,%d", clique, tail)
	}
	var edges [][2]int
	for i := 0; i < clique; i++ {
		for j := i + 1; j < clique; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	prev := 0
	for t := 0; t < tail; t++ {
		edges = append(edges, [2]int{prev, clique + t})
		prev = clique + t
	}
	return New(fmt.Sprintf("lollipop-%d+%d", clique, tail), clique+tail, edges)
}

// Wheel returns the wheel graph: a hub (node 0) connected to every node of
// an outer (n-1)-cycle.
func Wheel(n int) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("graph: wheel needs n ≥ 4, got %d", n)
	}
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
		next := i + 1
		if next == n {
			next = 1
		}
		edges = append(edges, [2]int{i, next})
	}
	return New(fmt.Sprintf("wheel-%d", n), n, edges)
}

// Circulant returns the circulant graph C_n(jumps): node i is adjacent to
// i±j (mod n) for every jump j. With jumps {1,2,…} these are dense
// expander-ish rings.
func Circulant(n int, jumps []int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: circulant needs n ≥ 3, got %d", n)
	}
	present := make(map[[2]int]bool)
	var edges [][2]int
	for _, j := range jumps {
		if j <= 0 || 2*j >= n+1 {
			return nil, fmt.Errorf("graph: circulant jump %d outside (0, n/2]", j)
		}
		for i := 0; i < n; i++ {
			u, v := i, (i+j)%n
			if u > v {
				u, v = v, u
			}
			if u == v || present[[2]int{u, v}] {
				continue
			}
			present[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
	}
	return New(fmt.Sprintf("circulant-%d-%v", n, jumps), n, edges)
}

// Barbell returns two k-cliques joined by a path of bridge nodes — two
// dense communities with a thin cut, the classic stress case for
// wave-based protocols.
func Barbell(clique, bridge int) (*Graph, error) {
	if clique < 3 || bridge < 1 {
		return nil, fmt.Errorf("graph: barbell needs clique ≥ 3, bridge ≥ 1, got %d,%d", clique, bridge)
	}
	n := 2*clique + bridge
	var edges [][2]int
	for i := 0; i < clique; i++ {
		for j := i + 1; j < clique; j++ {
			edges = append(edges, [2]int{i, j})
			edges = append(edges, [2]int{clique + bridge + i, clique + bridge + j})
		}
	}
	prev := 0
	for b := 0; b < bridge; b++ {
		edges = append(edges, [2]int{prev, clique + b})
		prev = clique + b
	}
	edges = append(edges, [2]int{prev, clique + bridge})
	return New(fmt.Sprintf("barbell-%d+%d", clique, bridge), n, edges)
}

// CompleteBipartite returns K_{a,b}: every one of the first a nodes linked
// to every one of the remaining b nodes.
func CompleteBipartite(a, b int) (*Graph, error) {
	if a < 1 || b < 1 {
		return nil, fmt.Errorf("graph: bipartite needs positive parts, got %d,%d", a, b)
	}
	var edges [][2]int
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, [2]int{i, a + j})
		}
	}
	return New(fmt.Sprintf("bipartite-%dx%d", a, b), a+b, edges)
}

// KaryTree returns the complete k-ary tree with n nodes (node i's children
// are k·i+1 … k·i+k).
func KaryTree(k, n int) (*Graph, error) {
	if k < 2 {
		return nil, fmt.Errorf("graph: k-ary tree needs k ≥ 2, got %d", k)
	}
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{(i - 1) / k, i})
	}
	return New(fmt.Sprintf("%d-ary-tree-%d", k, n), n, edges)
}

// RandomConnected returns a connected Erdős–Rényi-style graph: a uniformly
// random spanning tree plus each remaining edge independently with
// probability p. Deterministic for a given rng stream.
func RandomConnected(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: random graph needs n ≥ 1, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: edge probability %v outside [0,1]", p)
	}
	present := make(map[[2]int]bool)
	var edges [][2]int
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if !present[[2]int{u, v}] {
			present[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
	}
	// Random spanning tree: attach each node to a uniformly random earlier
	// node of a random permutation.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				add(u, v)
			}
		}
	}
	return New(fmt.Sprintf("random-%d-p%02.0f", n, p*100), n, edges)
}

// RandomSparse returns a connected random graph with a fixed edge budget: a
// uniformly random spanning tree plus up to extra additional uniformly
// random edges (duplicates and self-loops are discarded, so the realized
// extra-edge count can fall slightly short). Unlike RandomConnected, whose
// Erdős–Rényi pair loop is Θ(n²), construction is O((n+extra)·log) — the
// builder the scaling benchmarks use for 10⁵–10⁶-processor networks.
// Deterministic for a given rng stream.
func RandomSparse(n, extra int, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: random sparse graph needs n ≥ 1, got %d", n)
	}
	if extra < 0 {
		return nil, fmt.Errorf("graph: random sparse graph needs extra ≥ 0, got %d", extra)
	}
	// Each edge is one packed key, u<<32 | v with u < v, so the key order is
	// the lexicographic edge order.
	keys := make([]uint64, 0, n-1+extra)
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(u)<<32|uint64(v))
	}
	// Random spanning tree: attach each node to a uniformly random earlier
	// node of a random permutation (same construction as RandomConnected).
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
	// Sort-and-unique instead of a hash set: at n = 10⁶ the per-edge map
	// insert would dominate construction.
	slices.Sort(keys)
	keys = slices.Compact(keys)
	uniq := make([][2]int, len(keys))
	for i, k := range keys {
		uniq[i] = [2]int{int(k >> 32), int(k & math.MaxUint32)}
	}
	return New(fmt.Sprintf("sparse-%d+%d", n, extra), n, uniq)
}

// RandomTree returns a uniformly-attached random tree on n nodes.
func RandomTree(n int, rng *rand.Rand) (*Graph, error) {
	g, err := RandomConnected(n, 0, rng)
	if err != nil {
		return nil, err
	}
	g.name = fmt.Sprintf("randomtree-%d", n)
	return g, nil
}
