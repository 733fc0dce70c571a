// Package graph provides the graph substrate for topology control: the
// directed neighbor relation N_α computed by CBTC, its symmetric closure
// E_α and largest symmetric subset E⁻_α, connectivity queries (union-find
// and BFS), shortest paths, and the degree/radius/stretch metrics reported
// in the paper's evaluation.
//
// Nodes are dense integer indices 0..N-1, matching their position in the
// placement slice used by the rest of the system.
//
// # Representation
//
// Both Graph and Digraph store packed sorted adjacency: one ascending
// []int32 row per node, bulk-built graphs packing all rows into a single
// shared arena (CSR-style). Iteration order is therefore ascending by
// construction — every consumer is deterministic for free.
//
// Only Graph clones, and its clones are copy-on-write: Clone shares the
// per-node rows with the original and either side copies a row only when
// it first mutates it. A long-lived Session snapshotting a 10k-node
// topology pays O(n) slice-header copies per snapshot plus O(dirty rows)
// copies per repair, instead of a full adjacency rebuild. A Digraph is
// built once and then only read, so it has no clones to share with.
//
// Rows returned by Row are the live internal storage: callers must not
// mutate them, and a row is only valid until the graph's next mutation.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is an undirected edge between two node indices with U < V.
type Edge struct {
	U, V int
}

// NewEdge returns the canonical (ordered) edge between a and b.
func NewEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Graph is an undirected simple graph over nodes 0..N-1.
type Graph struct {
	n     int
	edges int       // cached undirected edge count
	adj   [][]int32 // per-node sorted neighbor rows
	// shared flags rows whose backing storage may be referenced by a
	// clone (or, after a bulk build, by sibling rows in the same arena
	// with adjacent capacity). A shared row is copied before its first
	// in-place mutation; flags are sticky until that copy happens.
	shared []bool
}

// New returns an empty undirected graph with n nodes.
func New(n int) *Graph {
	checkNodeCount(n)
	return &Graph{
		n:      n,
		adj:    make([][]int32, n),
		shared: make([]bool, n),
	}
}

// NewFromHalfRows builds a graph from per-node "upper" rows packed into
// one shared arena: rows[u] must list u's neighbors v > u in strictly
// ascending order. This is the bulk constructor the max-power graph
// builders use — degree counting plus two linear passes, no per-edge
// sorted inserts.
func NewFromHalfRows(rows [][]int32) *Graph {
	n := len(rows)
	checkNodeCount(n)
	deg := make([]int32, n)
	total := 0
	for u, row := range rows {
		for i, v := range row {
			if int(v) <= u || int(v) >= n || (i > 0 && row[i-1] >= v) {
				panic(fmt.Sprintf("graph: half row %d invalid at %d", u, v))
			}
			deg[u]++
			deg[v]++
		}
		total += 2 * len(row)
	}
	arena := make([]int32, total)
	g := &Graph{
		n:      n,
		edges:  total / 2,
		adj:    make([][]int32, n),
		shared: make([]bool, n),
	}
	off := 0
	for u := 0; u < n; u++ {
		// Full-capacity-limited so appends never bleed into the next row.
		g.adj[u] = arena[off : off : off+int(deg[u])]
		off += int(deg[u])
	}
	// A single ascending pass fills every row in ascending order: row u
	// first receives its smaller neighbors w < u (as w's own half rows are
	// walked, in increasing w), then its own ascending half row.
	for u, row := range rows {
		for _, v := range row {
			g.adj[u] = append(g.adj[u], v)
			g.adj[v] = append(g.adj[v], int32(u))
		}
	}
	return g
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// owned returns node u's row ready for in-place mutation, copying it
// first if a clone may still reference the storage.
func (g *Graph) owned(u int) []int32 {
	if g.shared[u] {
		g.adj[u] = slices.Clone(g.adj[u])
		g.shared[u] = false
	}
	return g.adj[u]
}

// insert adds v to node u's sorted row if absent; reports insertion.
func (g *Graph) insert(u int, v int32) bool {
	row := g.adj[u]
	i, found := slices.BinarySearch(row, v)
	if found {
		return false
	}
	row = g.owned(u)
	g.adj[u] = slices.Insert(row, i, v)
	return true
}

// remove deletes v from node u's sorted row if present; reports removal.
func (g *Graph) remove(u int, v int32) bool {
	row := g.adj[u]
	i, found := slices.BinarySearch(row, v)
	if !found {
		return false
	}
	row = g.owned(u)
	g.adj[u] = slices.Delete(row, i, i+1)
	return true
}

// AddEdge inserts the undirected edge {u, v}, reporting whether the
// edge was absent (so incremental consumers like LiveComponents can
// record the exact diff a mutation pass produced). Self-loops are
// ignored. It panics on out-of-range indices: edges come from trusted
// internal computations and an out-of-range index is a programming
// error.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if g.insert(u, int32(v)) {
		g.insert(v, int32(u))
		g.edges++
		return true
	}
	return false
}

// RemoveEdge deletes the undirected edge {u, v} if present, reporting
// whether it was.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if g.remove(u, int32(v)) {
		g.remove(v, int32(u))
		g.edges--
		return true
	}
	return false
}

// IsolateNode removes every edge incident to u, leaving it an isolated
// vertex. Dynamic scenarios use it to model departed nodes in a
// ground-truth graph.
func (g *Graph) IsolateNode(u int) {
	g.check(u)
	row := g.adj[u]
	for _, v := range row {
		g.remove(int(v), int32(u))
	}
	g.edges -= len(row)
	g.adj[u] = nil
	g.shared[u] = false
}

// SetRow makes next node u's neighbor row, patching only the edges
// that change: one merge walk over the old and new rows removes u from
// the rows of the neighbors it loses and inserts it into the rows of
// those it gains, so the graph ends exactly as IsolateNode(u) followed
// by AddEdge(u, v) for every v in next would leave it. next must ascend
// strictly and must not name u; it is copied, never retained. Like
// every mutation, SetRow copies a row still shared with a clone before
// writing to it.
func (g *Graph) SetRow(u int, next []int32) {
	g.check(u)
	for i, v := range next {
		g.check(int(v))
		if int(v) == u || (i > 0 && next[i-1] >= v) {
			panic(fmt.Sprintf("graph: row %d invalid at %d", u, v))
		}
	}
	old := g.adj[u]
	i, j := 0, 0
	for i < len(old) || j < len(next) {
		switch {
		case j == len(next) || (i < len(old) && old[i] < next[j]):
			g.remove(int(old[i]), int32(u))
			g.edges--
			i++
		case i == len(old) || next[j] < old[i]:
			g.insert(int(next[j]), int32(u))
			g.edges++
			j++
		default:
			i++
			j++
		}
	}
	if g.shared[u] {
		g.adj[u] = slices.Clone(next)
		g.shared[u] = false
	} else {
		g.adj[u] = append(old[:0], next...)
	}
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, found := slices.BinarySearch(g.adj[u], int32(v))
	return found
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Row returns node u's neighbor row: ascending node ids, backed by the
// graph's internal storage. The caller must not mutate it, and the row
// is only valid until the graph's next mutation. It is the zero-copy
// form of Neighbors for the traversal hot paths.
func (g *Graph) Row(u int) []int32 {
	g.check(u)
	return g.adj[u]
}

// Neighbors returns the sorted neighbor list of u as a fresh slice.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	row := g.adj[u]
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

// EachNeighbor calls fn for every neighbor of u in ascending order.
func (g *Graph) EachNeighbor(u int, fn func(v int)) {
	g.check(u)
	for _, v := range g.adj[u] {
		fn(int(v))
	}
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Edges returns all edges in canonical order (sorted by U, then V).
// Rows are ascending, so the canonical order falls out of one pass.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if int(v) > u {
				edges = append(edges, Edge{U: u, V: int(v)})
			}
		}
	}
	return edges
}

// Grow appends k isolated nodes, extending the id space to Len()+k.
// Dynamic scenarios use it when a session admits a joining node.
func (g *Graph) Grow(k int) {
	if k < 0 {
		panic(fmt.Sprintf("graph: negative growth %d", k))
	}
	checkNodeCount(g.n + k)
	g.adj = append(g.adj, make([][]int32, k)...)
	g.shared = append(g.shared, make([]bool, k)...)
	g.n += k
}

// Clone returns a copy-on-write clone: both graphs share every per-node
// row until one side mutates it, at which point only that row is copied.
// Cloning is O(n) slice-header copies — independent of the edge count —
// which is what makes Session snapshots cheap. Clone marks the
// original's rows shared, so it counts as a mutation for concurrency
// purposes: do not clone a graph concurrently with other access to it.
func (g *Graph) Clone() *Graph {
	for i := range g.shared {
		g.shared[i] = true
	}
	c := &Graph{
		n:      g.n,
		edges:  g.edges,
		adj:    slices.Clone(g.adj),
		shared: make([]bool, g.n),
	}
	for i := range c.shared {
		c.shared[i] = true
	}
	return c
}

// CloneDeep returns a fully materialized copy sharing no storage with
// the original: every row is packed into one fresh arena. It is the
// reference the COW equivalence tests and the clone benchmarks compare
// against; prefer Clone everywhere else.
func (g *Graph) CloneDeep() *Graph {
	arena := make([]int32, 0, 2*g.edges)
	c := &Graph{
		n:      g.n,
		edges:  g.edges,
		adj:    make([][]int32, g.n),
		shared: make([]bool, g.n),
	}
	for u := 0; u < g.n; u++ {
		start := len(arena)
		arena = append(arena, g.adj[u]...)
		c.adj[u] = arena[start:len(arena):len(arena)]
	}
	return c
}

// Equal reports whether two graphs have identical node and edge sets.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n || g.edges != o.edges {
		return false
	}
	for u := 0; u < g.n; u++ {
		if !slices.Equal(g.adj[u], o.adj[u]) {
			return false
		}
	}
	return true
}

// IsSubgraphOf reports whether every edge of g is also an edge of o.
func (g *Graph) IsSubgraphOf(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for u := 0; u < g.n; u++ {
		mine, theirs := g.adj[u], o.adj[u]
		j := 0
		for _, v := range mine {
			// Both rows ascend: a merge walk beats per-edge binary search.
			for j < len(theirs) && theirs[j] < v {
				j++
			}
			if j == len(theirs) || theirs[j] != v {
				return false
			}
			j++
		}
	}
	return true
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", u, g.n))
	}
}

func checkNodeCount(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d exceeds the packed int32 id space", n))
	}
}
