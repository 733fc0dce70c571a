package graph

import (
	"container/heap"
	"math"
)

// HopDistances returns the BFS hop count from src to every node, with -1
// for unreachable nodes.
func HopDistances(g *Graph, src int) []int {
	dist := make([]int, g.Len())
	hopsInto(g, src, dist, make([]int32, 0, g.Len()))
	return dist
}

// hopsInto is the one BFS kernel: it fills dist, of length g.Len(),
// with the hop count from src to every node (-1 where unreachable). The
// queue is appended into queue's backing array and never shifted, so a
// queue with capacity g.Len() never grows; it is returned for reuse.
func hopsInto(g *Graph, src int, dist []int, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// WeightFunc assigns a non-negative weight to the edge {u, v}.
type WeightFunc func(u, v int) float64

// ShortestPaths runs Dijkstra from src under the given edge weights and
// returns the distance to every node (math.Inf(1) when unreachable).
func ShortestPaths(g *Graph, src int, w WeightFunc) []float64 {
	dist := make([]float64, g.Len())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		u := item.node
		for _, v := range g.Row(u) {
			if d := item.dist + w(u, int(v)); d < dist[v] {
				dist[v] = d
				heap.Push(pq, distItem{node: int(v), dist: d})
			}
		}
	}
	return dist
}

type distItem struct {
	node int
	dist float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
