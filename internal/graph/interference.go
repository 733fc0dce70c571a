package graph

import "cbtc/internal/geom"

// EdgeInterference returns the coverage-based interference of the edge
// {u, v}: the number of other nodes inside the union of the two disks of
// radius d(u,v) centered at u and v — the nodes whose communication a
// transmission on this link can disturb. This is the standard
// link-interference measure used to quantify the paper's claim that
// fewer/shorter edges reduce interference.
func EdgeInterference(pos []geom.Point, u, v int) int {
	d2 := pos[u].Dist2(pos[v])
	count := 0
	for w, pw := range pos {
		if w == u || w == v {
			continue
		}
		if pw.Dist2(pos[u]) <= d2 || pw.Dist2(pos[v]) <= d2 {
			count++
		}
	}
	return count
}

// MaxInterference returns the maximum EdgeInterference over all edges
// of g (0 for edgeless graphs).
func MaxInterference(g *Graph, pos []geom.Point) int {
	max := 0
	for _, e := range g.Edges() {
		if c := EdgeInterference(pos, e.U, e.V); c > max {
			max = c
		}
	}
	return max
}

// AvgInterference returns the mean EdgeInterference over all edges of g
// (0 for edgeless graphs).
func AvgInterference(g *Graph, pos []geom.Point) float64 {
	edges := g.Edges()
	if len(edges) == 0 {
		return 0
	}
	total := 0
	for _, e := range edges {
		total += EdgeInterference(pos, e.U, e.V)
	}
	return float64(total) / float64(len(edges))
}

// Diameter returns the largest hop distance between any connected pair
// of nodes (0 for graphs with no multi-node component). Each node runs
// one full BFS, whose last node queued is the farthest it reaches.
func Diameter(g *Graph) int {
	dist := make([]int, g.Len())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, g.Len())
	max := 0
	for u := range dist {
		queue, _ = hopsInto(g, u, dist, 0, queue)
		if d := dist[queue[len(queue)-1]]; d > max {
			max = d
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}
	return max
}
