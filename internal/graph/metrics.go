package graph

import (
	"math"
	"sort"

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

// MaxDegree returns the largest node degree.
func MaxDegree(g *Graph) int {
	max := 0
	for u := 0; u < g.Len(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
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

// HopStretch compares hop-count routes the same way Stretch compares
// weighted routes. Its 2n BFS passes share two distance buffers and one
// queue.
func HopStretch(base, sub *Graph) float64 {
	if base.Len() != sub.Len() {
		return math.Inf(1)
	}
	n := base.Len()
	hb, hs := make([]int, n), make([]int, n)
	queue := make([]int32, 0, n)
	worst := 1.0
	for src := 0; src < n; src++ {
		queue = hopsInto(base, src, hb, queue)
		queue = hopsInto(sub, src, hs, queue)
		for v := range hb {
			if v == src || hb[v] <= 0 {
				continue
			}
			if hs[v] < 0 {
				return math.Inf(1)
			}
			if r := float64(hs[v]) / float64(hb[v]); r > worst {
				worst = r
			}
		}
	}
	return worst
}

// EdgeLengths returns the sorted list of Euclidean edge lengths of g.
func EdgeLengths(g *Graph, pos []geom.Point) []float64 {
	edges := g.Edges()
	out := make([]float64, len(edges))
	for i, e := range edges {
		out[i] = pos[e.U].Dist(pos[e.V])
	}
	sort.Float64s(out)
	return out
}
