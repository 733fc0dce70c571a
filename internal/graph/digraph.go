package graph

import (
	"fmt"
	"slices"
)

// Digraph is a directed simple graph over nodes 0..N-1. It represents
// the asymmetric neighbor relation N_α = {(u,v) : v ∈ N_α(u)} computed
// by CBTC before any symmetrization. Like Graph it stores packed sorted
// successor rows. A digraph is built once, by AddArc or in bulk, and
// then only read: it has no clones and no arc removal.
type Digraph struct {
	n    int
	arcs int       // cached arc count
	out  [][]int32 // per-node sorted successor rows
}

// NewDigraph returns an empty directed graph with n nodes.
func NewDigraph(n int) *Digraph {
	checkNodeCount(n)
	return &Digraph{n: n, out: make([][]int32, n)}
}

// NewDigraphFromRows builds a digraph from per-node successor rows
// packed into one shared arena. rows[u] must be strictly ascending,
// in-range, and free of self-loops; the rows are copied, not retained.
func NewDigraphFromRows(rows [][]int32) *Digraph {
	n := len(rows)
	checkNodeCount(n)
	total := 0
	for u, row := range rows {
		for i, v := range row {
			if int(v) < 0 || int(v) >= n || int(v) == u || (i > 0 && row[i-1] >= v) {
				panic(fmt.Sprintf("graph: successor row %d invalid at %d", u, v))
			}
		}
		total += len(row)
	}
	arena := make([]int32, 0, total)
	d := &Digraph{n: n, arcs: total, out: make([][]int32, n)}
	for u, row := range rows {
		start := len(arena)
		arena = append(arena, row...)
		d.out[u] = arena[start:len(arena):len(arena)]
	}
	return d
}

// Len returns the number of nodes.
func (d *Digraph) Len() int { return d.n }

// AddArc inserts the directed edge u→v. Self-loops are ignored.
func (d *Digraph) AddArc(u, v int) {
	d.check(u)
	d.check(v)
	if u == v {
		return
	}
	i, found := slices.BinarySearch(d.out[u], int32(v))
	if found {
		return
	}
	d.out[u] = slices.Insert(d.out[u], i, int32(v))
	d.arcs++
}

// HasArc reports whether the directed edge u→v is present.
func (d *Digraph) HasArc(u, v int) bool {
	d.check(u)
	d.check(v)
	_, found := slices.BinarySearch(d.out[u], int32(v))
	return found
}

// OutDegree returns the number of outgoing edges of u.
func (d *Digraph) OutDegree(u int) int {
	d.check(u)
	return len(d.out[u])
}

// Row returns node u's successor row: ascending node ids, backed by the
// digraph's internal storage. The caller must not mutate it, and the
// row is only valid until the next AddArc.
func (d *Digraph) Row(u int) []int32 {
	d.check(u)
	return d.out[u]
}

// Successors returns the sorted list of v with u→v as a fresh slice.
func (d *Digraph) Successors(u int) []int {
	d.check(u)
	row := d.out[u]
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

// ArcCount returns the number of directed edges.
func (d *Digraph) ArcCount() int { return d.arcs }

// SymmetricClosure returns the smallest symmetric (undirected) graph
// containing every arc: {u,v} is an edge iff u→v or v→u. This is the
// paper's E_α.
func (d *Digraph) SymmetricClosure() *Graph { return d.symmetrize(false) }

// MutualSubgraph returns the largest symmetric graph contained in the
// arc set: {u,v} is an edge iff both u→v and v→u. This is the paper's
// E⁻_α, used by the asymmetric edge removal optimization (§3.2).
func (d *Digraph) MutualSubgraph() *Graph { return d.symmetrize(true) }

// symmetrize bulk-builds E_α (mutual false) or E⁻_α (mutual true). Node
// u's half row merges its own arcs to v > u with the arcs v→u from v > u
// — the downward arcs, transposed by a counting sort that lists each
// node's in-arcs in ascending order — keeping their union or their
// intersection, and NewFromHalfRows packs the rows in one arena.
func (d *Digraph) symmetrize(mutual bool) *Graph {
	n := d.n
	count := make([]int32, n)
	down := 0
	for v, row := range d.out {
		for _, u := range row {
			if int(u) < v {
				count[u]++
				down++
			}
		}
	}
	inArena := make([]int32, down)
	in := make([][]int32, n)
	off := 0
	for u := range in {
		in[u] = inArena[off : off : off+int(count[u])]
		off += int(count[u])
	}
	for v, row := range d.out {
		for _, u := range row {
			if int(u) < v {
				in[u] = append(in[u], int32(v))
			}
		}
	}

	// Every arc yields at most one half-row entry, so the arena never
	// reallocates and the rows sliced from it stay valid.
	arena := make([]int32, 0, d.arcs)
	rows := make([][]int32, n)
	for u, row := range d.out {
		i, _ := slices.BinarySearch(row, int32(u))
		a, b := row[i:], in[u]
		start := len(arena)
		for len(a) > 0 && len(b) > 0 {
			switch {
			case a[0] < b[0]:
				if !mutual {
					arena = append(arena, a[0])
				}
				a = a[1:]
			case a[0] > b[0]:
				if !mutual {
					arena = append(arena, b[0])
				}
				b = b[1:]
			default:
				arena = append(arena, a[0])
				a, b = a[1:], b[1:]
			}
		}
		if !mutual {
			arena = append(append(arena, a...), b...)
		}
		rows[u] = arena[start:len(arena):len(arena)]
	}
	return NewFromHalfRows(rows)
}

// AsymmetricArcs returns every arc u→v whose reverse v→u is absent, in
// canonical order (ascending U, then V — which the sorted rows yield by
// construction). These are the arcs the asymmetric-removal protocol
// message ("remove me from your neighbor set") travels along.
func (d *Digraph) AsymmetricArcs() []Edge {
	var arcs []Edge
	for u := 0; u < d.n; u++ {
		for _, v := range d.out[u] {
			if !d.HasArc(int(v), u) {
				arcs = append(arcs, Edge{U: u, V: int(v)}) // directed: U→V
			}
		}
	}
	return arcs
}

// Equal reports whether two digraphs have identical node and arc sets.
func (d *Digraph) Equal(o *Digraph) bool {
	if d.n != o.n || d.arcs != o.arcs {
		return false
	}
	for u := 0; u < d.n; u++ {
		if !slices.Equal(d.out[u], o.out[u]) {
			return false
		}
	}
	return true
}

func (d *Digraph) check(u int) {
	if u < 0 || u >= d.n {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", u, d.n))
	}
}
