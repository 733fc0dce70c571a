package graph

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// refGraph is the map-backed reference model the packed copy-on-write
// Graph must match operation for operation — the representation the
// substrate replaced.
type refGraph struct {
	n   int
	adj []map[int]struct{}
}

func newRefGraph(n int) *refGraph {
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	return &refGraph{n: n, adj: adj}
}

func (r *refGraph) addEdge(u, v int) {
	if u == v {
		return
	}
	r.adj[u][v] = struct{}{}
	r.adj[v][u] = struct{}{}
}

func (r *refGraph) removeEdge(u, v int) {
	delete(r.adj[u], v)
	delete(r.adj[v], u)
}

func (r *refGraph) isolate(u int) {
	for v := range r.adj[u] {
		delete(r.adj[v], u)
	}
	r.adj[u] = make(map[int]struct{})
}

func (r *refGraph) grow(k int) {
	for i := 0; i < k; i++ {
		r.adj = append(r.adj, make(map[int]struct{}))
	}
	r.n += k
}

func (r *refGraph) clone() *refGraph {
	c := newRefGraph(r.n)
	for u := range r.adj {
		for v := range r.adj[u] {
			c.adj[u][v] = struct{}{}
		}
	}
	return c
}

func (r *refGraph) edges() []Edge {
	var out []Edge
	for u := range r.adj {
		for v := range r.adj[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func (r *refGraph) edgeCount() int {
	total := 0
	for _, m := range r.adj {
		total += len(m)
	}
	return total / 2
}

// assertMatchesRef checks every observable of the packed graph against
// the reference model.
func assertMatchesRef(t *testing.T, g *Graph, r *refGraph) {
	t.Helper()
	if g.Len() != r.n {
		t.Fatalf("Len = %d, want %d", g.Len(), r.n)
	}
	if g.EdgeCount() != r.edgeCount() {
		t.Fatalf("EdgeCount = %d, want %d", g.EdgeCount(), r.edgeCount())
	}
	ge, re := g.Edges(), r.edges()
	if len(ge) != len(re) {
		t.Fatalf("Edges: %d edges, want %d", len(ge), len(re))
	}
	for i := range ge {
		if ge[i] != re[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, ge[i], re[i])
		}
	}
	for u := 0; u < r.n; u++ {
		if g.Degree(u) != len(r.adj[u]) {
			t.Fatalf("Degree(%d) = %d, want %d", u, g.Degree(u), len(r.adj[u]))
		}
		row := g.Row(u)
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("Row(%d) not strictly ascending: %v", u, row)
			}
		}
		for _, v := range row {
			if _, ok := r.adj[u][int(v)]; !ok {
				t.Fatalf("Row(%d) holds %d, absent from reference", u, v)
			}
		}
		nbrs := g.Neighbors(u)
		if len(nbrs) != len(row) {
			t.Fatalf("Neighbors(%d) len %d, Row len %d", u, len(nbrs), len(row))
		}
	}
}

// TestGraphMatchesMapReference drives random interleavings of every
// mutating operation — including clones that keep mutating both the
// original and the copy — through the packed COW graph and the old
// map-based semantics in lockstep.
func TestGraphMatchesMapReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 2 + rng.IntN(12)
		g := New(n)
		r := newRefGraph(n)
		// A pool of live (packed, reference) pairs: clones join the pool
		// and keep receiving operations, exercising row sharing in both
		// directions.
		gs := []*Graph{g}
		rs := []*refGraph{r}
		for step := 0; step < 400; step++ {
			k := rng.IntN(len(gs))
			g, r := gs[k], rs[k]
			pick := func() int { return rng.IntN(g.Len()) }
			switch op := rng.IntN(10); {
			case op < 4:
				u, v := pick(), pick()
				g.AddEdge(u, v)
				r.addEdge(u, v)
			case op < 6:
				u, v := pick(), pick()
				g.RemoveEdge(u, v)
				if u != v {
					r.removeEdge(u, v)
				}
			case op < 7:
				u := pick()
				g.IsolateNode(u)
				r.isolate(u)
			case op < 8:
				g.Grow(1)
				r.grow(1)
			default:
				if len(gs) < 6 {
					gs = append(gs, g.Clone())
					rs = append(rs, r.clone())
				}
			}
		}
		for i := range gs {
			assertMatchesRef(t, gs[i], rs[i])
		}
	}
}

// TestGraphCloneIsolation hammers the COW sharing directly: mutations
// on either side of a clone must never leak to the other, and a deep
// clone must stay bit-identical to the snapshot moment.
func TestGraphCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g := New(20)
	for i := 0; i < 60; i++ {
		g.AddEdge(rng.IntN(20), rng.IntN(20))
	}
	snap := g.Clone()
	frozen := g.CloneDeep()
	if !snap.Equal(frozen) || !g.Equal(snap) {
		t.Fatal("clones must equal the original at snapshot time")
	}
	// Diverge both sides.
	for i := 0; i < 200; i++ {
		u, v := rng.IntN(20), rng.IntN(20)
		switch rng.IntN(3) {
		case 0:
			g.AddEdge(u, v)
		case 1:
			g.RemoveEdge(u, v)
		case 2:
			g.IsolateNode(u)
		}
	}
	if !snap.Equal(frozen) {
		t.Fatal("mutating the original leaked into the COW clone")
	}
	// And the other direction: mutate the clone, original untouched.
	before := g.CloneDeep()
	for i := 0; i < 200; i++ {
		u, v := rng.IntN(20), rng.IntN(20)
		if rng.IntN(2) == 0 {
			snap.AddEdge(u, v)
		} else {
			snap.RemoveEdge(u, v)
		}
	}
	if !g.Equal(before) {
		t.Fatal("mutating the COW clone leaked into the original")
	}
}

// refDigraph is the map-backed reference for the packed Digraph.
type refDigraph struct {
	n   int
	out []map[int]struct{}
}

func newRefDigraph(n int) *refDigraph {
	out := make([]map[int]struct{}, n)
	for i := range out {
		out[i] = make(map[int]struct{})
	}
	return &refDigraph{n: n, out: out}
}

// TestDigraphMatchesMapReference drives random arc insertions — self
// loops and repeats included — through the packed Digraph and a map
// model in lockstep.
func TestDigraphMatchesMapReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 2 + rng.IntN(12)
		d, r := NewDigraph(n), newRefDigraph(n)
		for step := 0; step < 400; step++ {
			u, v := rng.IntN(n), rng.IntN(n)
			d.AddArc(u, v)
			if u != v {
				r.out[u][v] = struct{}{}
			}
		}
		arcs := 0
		for u := 0; u < r.n; u++ {
			arcs += len(r.out[u])
			if d.OutDegree(u) != len(r.out[u]) {
				t.Fatalf("seed %d: OutDegree(%d) = %d, want %d", seed, u, d.OutDegree(u), len(r.out[u]))
			}
			for _, v := range d.Row(u) {
				if _, ok := r.out[u][int(v)]; !ok {
					t.Fatalf("seed %d: stray arc %d→%d", seed, u, v)
				}
			}
			for v := range r.out[u] {
				if !d.HasArc(u, v) {
					t.Fatalf("seed %d: missing arc %d→%d", seed, u, v)
				}
			}
		}
		if d.ArcCount() != arcs {
			t.Fatalf("seed %d: ArcCount = %d, want %d", seed, d.ArcCount(), arcs)
		}
	}
}

// TestNewFromHalfRowsMatchesAddEdge pins the arena bulk constructor to
// the incremental path.
func TestNewFromHalfRowsMatchesAddEdge(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 1 + rng.IntN(30)
		rows := make([][]int32, n)
		inc := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.IntN(3) == 0 {
					rows[u] = append(rows[u], int32(v))
					inc.AddEdge(u, v)
				}
			}
		}
		bulk := NewFromHalfRows(rows)
		if !bulk.Equal(inc) {
			t.Fatalf("seed %d: bulk-built graph differs from AddEdge build", seed)
		}
		// The arena rows must be safely mutable: appending to one row
		// must not corrupt its arena neighbors.
		if n >= 3 && !bulk.HasEdge(0, n-1) {
			before := bulk.CloneDeep()
			bulk.AddEdge(0, n-1)
			bulk.RemoveEdge(0, n-1)
			if !bulk.Equal(before) {
				t.Fatalf("seed %d: add/remove round trip disturbed the arena", seed)
			}
		}
	}
}

func TestDigraphFromRowsMatchesAddArc(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	n := 25
	rows := make([][]int32, n)
	inc := NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v != u && rng.IntN(4) == 0 {
				rows[u] = append(rows[u], int32(v))
				inc.AddArc(u, v)
			}
		}
	}
	bulk := NewDigraphFromRows(rows)
	if !bulk.Equal(inc) {
		t.Fatal("bulk-built digraph differs from AddArc build")
	}
	if !bulk.SymmetricClosure().Equal(inc.SymmetricClosure()) {
		t.Fatal("symmetric closures differ")
	}
	if !bulk.MutualSubgraph().Equal(inc.MutualSubgraph()) {
		t.Fatal("mutual subgraphs differ")
	}
}

// SetRow equals IsolateNode followed by AddEdge for every entry of the
// new row, on random graphs — bulk-built, so rows start packed in one
// arena — with random new rows that keep some old neighbors, drop others
// and gain new ones, and the edge counts agree. Every other call follows
// a Clone, which must be left unchanged; the calls between write the
// rows they own in place.
func TestSetRowMatchesIsolateAndAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.IntN(40)
		rows := make([][]int32, n)
		for u := range rows {
			for v := u + 1; v < n; v++ {
				if rng.IntN(4) == 0 {
					rows[u] = append(rows[u], int32(v))
				}
			}
		}
		g := NewFromHalfRows(rows)
		ref := g.CloneDeep()
		for step := 0; step < 6; step++ {
			u := rng.IntN(n)
			var next []int32
			for v := 0; v < n; v++ {
				keep := g.HasEdge(u, v) && rng.IntN(3) != 0
				if v != u && (keep || rng.IntN(6) == 0) {
					next = append(next, int32(v))
				}
			}
			var snap, frozen *Graph
			if step%2 == 0 {
				snap = g.Clone()
				frozen = snap.CloneDeep()
			}
			g.SetRow(u, next)
			ref.IsolateNode(u)
			for _, v := range next {
				ref.AddEdge(u, int(v))
			}
			if !g.Equal(ref) || g.EdgeCount() != ref.EdgeCount() {
				t.Fatalf("iter %d step %d: SetRow(%d, %v) left\n%v\nwant\n%v", iter, step, u, next, g.Edges(), ref.Edges())
			}
			if snap != nil && (!snap.Equal(frozen) || snap.EdgeCount() != frozen.EdgeCount()) {
				t.Fatalf("iter %d step %d: SetRow changed a clone taken before it", iter, step)
			}
		}
	}
}
