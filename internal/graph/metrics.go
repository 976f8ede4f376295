package graph

// This file implements the graph metrics that the paper's complexity analysis
// refers to: BFS distances, eccentricity, diameter, BFS spanning trees (used
// by the tree-based PIF baseline), and the longest elementary chordless path
// (the quantity that bounds the height h of the tree constructed during a PIF
// cycle — Theorem 4).

// BFS returns the distance from src to every node; unreachable nodes get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum BFS distance from src to any node.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, d := range g.BFS(src) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity over all nodes. O(N·(N+M)).
func (g *Graph) Diameter() int {
	diam := 0
	for p := 0; p < g.N(); p++ {
		if e := g.Eccentricity(p); e > diam {
			diam = e
		}
	}
	return diam
}

// BFSTree returns, for every node, its parent in a BFS tree rooted at root
// (parent[root] = -1). Ties are broken toward the smallest-ID parent because
// neighbor lists are in ascending order. The tree-based PIF baseline runs on
// this tree.
func (g *Graph) BFSTree(root int) []int {
	parent := make([]int, g.N())
	dist := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	dist[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

// IsChordlessPath reports whether the node sequence is an elementary
// chordless path in g: consecutive nodes adjacent, all nodes distinct, and no
// edge between non-consecutive nodes. This is the property the proof of
// Theorem 4 establishes for every ParentPath the algorithm builds.
func (g *Graph) IsChordlessPath(path []int) bool {
	seen := make(map[int]bool, len(path))
	for i, u := range path {
		if seen[u] {
			return false
		}
		seen[u] = true
		if i > 0 && !g.HasEdge(path[i-1], u) {
			return false
		}
	}
	for i := 0; i < len(path); i++ {
		for j := i + 2; j < len(path); j++ {
			if g.HasEdge(path[i], path[j]) {
				return false
			}
		}
	}
	return true
}

// LongestChordlessPathFrom returns the length (number of edges) of the
// longest elementary chordless path ending at root. Exponential-time exact
// search; intended for the small graphs used in tests and experiments that
// validate the Theorem 4 bound h ≤ longest-chordless-path.
func (g *Graph) LongestChordlessPathFrom(root int) int {
	onPath := make([]bool, g.N())
	path := []int{root}
	onPath[root] = true
	best := 0
	var dfs func(u, depth int)
	dfs = func(u, depth int) {
		if depth > best {
			best = depth
		}
		for _, v := range g.Neighbors(u) {
			if onPath[v] || !g.chordFree(path, v) {
				continue
			}
			onPath[v] = true
			path = append(path, v)
			dfs(v, depth+1)
			path = path[:len(path)-1]
			onPath[v] = false
		}
	}
	dfs(root, 0)
	return best
}

// chordFree reports whether appending v to path keeps it chordless: v must
// be adjacent only to the last node of the path.
func (g *Graph) chordFree(path []int, v int) bool {
	for i := 0; i < len(path)-1; i++ {
		if g.HasEdge(path[i], v) {
			return false
		}
	}
	return true
}
