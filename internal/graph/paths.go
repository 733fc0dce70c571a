package graph

import (
	"container/heap"
	"math"
)

// hopsInto is the one BFS kernel. It labels dist[v] with the hop count
// from src to v in g, reaching nodes in order of hop count, and returns
// them in that order in queue's backing array, which it appends to and
// never shifts, so a queue with capacity g.Len() never grows. On entry
// every entry of dist is negative: -1 at an ordinary node, -2 at a
// target. The walk stops as soon as it has labelled `targets` targets,
// so the last node queued is the farthest of them; with no -2 entry it
// labels every node reachable from src. It also returns the number of
// targets left unlabelled. The caller restores dist to -1 over the
// returned queue before the next walk.
func hopsInto(g *Graph, src int, dist []int, targets int, queue []int32) ([]int32, int) {
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if mark := dist[v]; mark < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
				if mark == -2 {
					if targets--; targets == 0 {
						return queue, 0
					}
				}
			}
		}
	}
	return queue, targets
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
