// Package graph provides the network substrate for the PIF protocols: simple,
// connected, undirected graphs with per-node ordered neighbor lists.
//
// The paper's system model (Section 2) assumes an arbitrary connected topology
// of N processors connected by bidirectional links, where each processor p
// stores its neighbor labels in a set Neig_p arranged in an arbitrary total
// order ≺_p. This package realizes that model: a Graph stores, for every node,
// its adjacency list sorted in the node's local order (ascending node ID by
// construction, which is one valid arbitrary order), and exposes the metrics
// the complexity analysis needs (diameter, eccentricity, BFS trees, longest
// chordless path bounds).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrDisconnected is returned by validation when the graph is not connected.
// PIF requires a connected network: a broadcast must be able to reach every
// processor.
var ErrDisconnected = errors.New("graph: not connected")

// Graph is an immutable simple undirected graph over nodes 0..N()-1.
//
// The adjacency is stored in compressed sparse rows: node p's neighbors are
// nbr[off[p]:off[p+1]], one contiguous array for the whole graph. A slice
// header per node (24 bytes) would cost as much as the neighbor lists of a
// sparse graph.
//
// The zero value is an empty graph; use New or one of the topology builders.
type Graph struct {
	name string
	nbr  []int   // every adjacency list, node after node
	off  []int32 // node p's list is nbr[off[p]:off[p+1]]; nil for the zero value
	m    int     // number of undirected edges
}

// New builds a graph with n nodes and the given undirected edges. Self-loops
// and duplicate edges are rejected. The neighbor order of every node is
// ascending node ID (one concrete instance of the paper's arbitrary local
// order ≺_p).
//
// The adjacency is filled by counting sort rather than by sorting each list
// or through a hash set of edges: the large-N engine builds million-node
// topologies, where a per-edge map insert dominated construction time and
// memory. Duplicates then sit side by side in a sorted list.
func New(name string, n int, edges [][2]int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph %q: need at least one node, got %d", name, n)
	}
	if err := checkArcs(name, 2*len(edges)); err != nil {
		return nil, err
	}
	// First pass: validate endpoints and count degrees, so that the offsets
	// are the degrees' prefix sums.
	off := make([]int32, n+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph %q: edge (%d,%d) out of range [0,%d)", name, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph %q: self-loop at node %d", name, u)
		}
		off[u+1]++
		off[v+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	// Counting sort in two scatters. The first lists every node's neighbors
	// in edge order. The second walks those lists in ascending node order q
	// and appends q to each of q's neighbors, so every list comes out in
	// ascending order without a comparison sort.
	next := make([]int32, n)
	copy(next, off[:n])
	byEdge := make([]int32, off[n])
	for _, e := range edges {
		byEdge[next[e[0]]] = int32(e[1])
		next[e[0]]++
		byEdge[next[e[1]]] = int32(e[0])
		next[e[1]]++
	}
	copy(next, off[:n])
	nbr := make([]int, off[n])
	for q := 0; q < n; q++ {
		for _, p := range byEdge[off[q]:off[q+1]] {
			nbr[next[p]] = q
			next[p]++
		}
	}
	g := &Graph{name: name, nbr: nbr, off: off, m: len(edges)}
	for u := 0; u < n; u++ {
		nb := g.Neighbors(u)
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				return nil, fmt.Errorf("graph %q: duplicate edge (%d,%d)", name, min(u, nb[i]), max(u, nb[i]))
			}
		}
	}
	if !g.connected() {
		return nil, fmt.Errorf("graph %q: %w", name, ErrDisconnected)
	}
	return g, nil
}

// checkArcs rejects an adjacency of more entries (twice the edges) than the
// int32 offsets can address.
func checkArcs(name string, arcs int) error {
	if arcs > math.MaxInt32 {
		return fmt.Errorf("graph %q: %d adjacency entries overflow the int32 offsets (at most %d)", name, arcs, math.MaxInt32)
	}
	return nil
}

// MustNew is New but panics on error. Intended for tests and for builders
// whose construction is correct by design.
func MustNew(name string, n int, edges [][2]int) *Graph {
	g, err := New(name, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the human-readable topology name (e.g. "ring-16").
func (g *Graph) Name() string { return g.name }

// N returns the number of nodes.
func (g *Graph) N() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns node p's adjacency list in p's local order ≺_p
// (ascending node ID). The returned slice is owned by the graph and must not
// be modified; this is a deliberate hot-path exception to copy-at-boundaries,
// as every guard evaluation in the simulator walks neighbor lists. Its
// capacity is its length, so an append copies instead of overwriting the
// next node's list.
func (g *Graph) Neighbors(p int) []int {
	lo, hi := g.off[p], g.off[p+1]
	return g.nbr[lo:hi:hi]
}

// Degree returns the number of neighbors of p.
func (g *Graph) Degree(p int) int { return int(g.off[p+1] - g.off[p]) }

// HasEdge reports whether nodes u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	nb := g.Neighbors(u)
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// Edges returns a fresh copy of the edge list with u < v in each pair,
// sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// String renders a short description like "ring-8{n=8 m=8}".
func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d m=%d}", g.name, g.N(), g.m)
}

// DegreeStats returns the minimum, maximum, and average degree.
func (g *Graph) DegreeStats() (minDeg, maxDeg int, avg float64) {
	minDeg = g.N()
	for p := 0; p < g.N(); p++ {
		d := g.Degree(p)
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if g.N() > 0 {
		avg = 2 * float64(g.m) / float64(g.N())
	}
	return minDeg, maxDeg, avg
}

// connected reports whether the graph is connected (single component).
func (g *Graph) connected() bool {
	if g.N() == 0 {
		return false
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// DOT renders the graph in Graphviz DOT format, for debugging and docs.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", g.name)
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -- %d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}
