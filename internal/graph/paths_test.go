package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// HopDistances returns the BFS hop count from src to every node, with -1
// for unreachable nodes: the labels of one hopsInto walk with no target.
func HopDistances(g *Graph, src int) []int {
	dist := make([]int, g.Len())
	for i := range dist {
		dist[i] = -1
	}
	hopsInto(g, src, dist, 0, make([]int32, 0, g.Len()))
	return dist
}

func TestHopDistances(t *testing.T) {
	g := pathGraph(5)
	g.AddEdge(0, 4) // ring
	dist := HopDistances(g, 0)
	want := []int{0, 1, 2, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	dist := HopDistances(g, 0)
	if dist[2] != -1 {
		t.Errorf("dist[2] = %d, want -1 (unreachable)", dist[2])
	}
}

func TestShortestPaths(t *testing.T) {
	// Square with a shortcut: 0-1-2 costs 2, direct 0-2 costs 3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	w := func(u, v int) float64 {
		if (u == 0 && v == 2) || (u == 2 && v == 0) {
			return 3
		}
		return 1
	}
	dist := ShortestPaths(g, 0, w)
	wantDist := []float64{0, 1, 2, 3}
	for i := range wantDist {
		if math.Abs(dist[i]-wantDist[i]) > 1e-12 {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], wantDist[i])
		}
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := New(2)
	dist := ShortestPaths(g, 0, func(u, v int) float64 { return 1 })
	if !math.IsInf(dist[1], 1) {
		t.Errorf("dist[1] = %v, want +Inf", dist[1])
	}
}

// With unit weights, Dijkstra must agree with BFS.
func TestDijkstraMatchesBFSProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := int(nRaw%25) + 2
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.IntN(n), rng.IntN(n))
		}
		src := rng.IntN(n)
		hops := HopDistances(g, src)
		dist := ShortestPaths(g, src, func(u, v int) float64 { return 1 })
		for i := range hops {
			if hops[i] == -1 {
				if !math.IsInf(dist[i], 1) {
					return false
				}
				continue
			}
			if math.Abs(dist[i]-float64(hops[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Shortest path distances satisfy the triangle inequality through any
// intermediate node.
func TestDijkstraTriangleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 43))
		n := 12
		g := New(n)
		weights := make(map[Edge]float64)
		for i := 0; i < 3*n; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				g.AddEdge(u, v)
				weights[NewEdge(u, v)] = rng.Float64()*10 + 0.1
			}
		}
		w := func(u, v int) float64 { return weights[NewEdge(u, v)] }
		src := rng.IntN(n)
		dist := ShortestPaths(g, src, w)
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			var bad bool
			g.EachNeighbor(u, func(v int) {
				if dist[v] > dist[u]+w(u, v)+1e-9 {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
