package core

import (
	"cmp"
	"context"
	"slices"

	"cbtc/internal/geom"
)

// ShrinkBack applies the paper's first optimization (§3.1, Theorem 3.1):
// after the growing phase, each node successively drops the neighbors
// tagged with the highest discovery power, as long as dropping the whole
// tag level leaves the α-cone coverage unchanged. Boundary nodes — which
// finished broadcasting at maximum power — are the ones that typically
// shrink; for interior nodes the final power level closed the last gap
// and cannot be dropped.
//
// The result is a new Execution whose neighbor sets are N^s_α(u), the
// rows of ShrinkRows; GrowPower is preserved because reconfiguration
// beacons must still use the basic algorithm's power (§4).
func ShrinkBack(e *Execution) *Execution {
	out := &Execution{
		Alpha:         e.Alpha,
		Model:         e.Model,
		LinkDependent: e.LinkDependent,
		Pos:           append([]geom.Point(nil), e.Pos...),
		Nodes:         append(make([]NodeResult, 0, len(e.Nodes)), e.Nodes...),
	}
	// The context is inert: one worker and no deadline.
	rows, _ := ShrinkRows(context.Background(), e.Nodes, e.Alpha, 1)
	for u, row := range rows {
		out.Nodes[u].Neighbors = row
	}
	return out
}

// ShrinkRows is shrink-back over every node's discovery row: it returns
// N^s_α(u) for each u, fanned across workers (see ParallelRange). The
// rows share one arena: each is written in a region the size of its
// node's row, capacity-capped there, where a row-by-row shrink would
// allocate a copy per node. An empty row is nil.
func ShrinkRows(ctx context.Context, nodes []NodeResult, alpha float64, workers int) ([][]Discovery, error) {
	offs := make([]int, len(nodes)+1)
	for u, nr := range nodes {
		offs[u+1] = offs[u] + len(nr.Neighbors)
	}
	arena := make([]Discovery, offs[len(nodes)])
	rows := make([][]Discovery, len(nodes))
	workers = ResolveWorkers(workers, len(nodes))
	scratch := make([]coverScratch, workers)
	err := ParallelRange(ctx, len(nodes), workers, func(w, u int) {
		if lo, hi := offs[u], offs[u+1]; lo < hi {
			rows[u] = scratch[w].shrinkNeighbors(arena[lo:lo:hi], nodes[u].Neighbors, alpha)
		}
	})
	return rows, err
}

// ShrinkNeighbors performs the shrink-back operation for a single node:
// it keeps the minimal prefix of discovery-power levels whose α-coverage
// equals the coverage of the full set. The distributed protocol uses it
// directly when computing (possibly incorrectly reduced) beacon powers.
func ShrinkNeighbors(neighbors []Discovery, alpha float64) []Discovery {
	var cs coverScratch
	return cs.shrinkNeighbors(nil, neighbors, alpha)
}

// coverScratch is the reusable state of the per-node coverage
// optimizations: the coverage kernel and the direction list it is reset
// from. Nothing stored in it outlives a single call.
type coverScratch struct {
	cover geom.Cover
	dirs  []float64
}

// reset makes the directions of list, as given, the kernel's reference
// and query set.
func (cs *coverScratch) reset(list []Discovery, alpha float64) *geom.Cover {
	cs.dirs = cs.dirs[:0]
	for _, nb := range list {
		cs.dirs = append(cs.dirs, nb.Dir)
	}
	cs.cover.Reset(cs.dirs, alpha)
	return &cs.cover
}

// shrinkNeighbors sorts a copy of neighbors, appended to dst, and
// returns its kept prefix.
func (cs *coverScratch) shrinkNeighbors(dst, neighbors []Discovery, alpha float64) []Discovery {
	if len(neighbors) == 0 {
		return neighbors
	}
	sorted := append(dst, neighbors...)
	slices.SortFunc(sorted, shrinkOrder)

	// Walk the power levels (contiguous runs of equal Power) from the
	// front: each level's directions join the kernel's query set, and
	// the first prefix whose coverage equals the full set's is kept.
	// When the full set covers the circle, as it does for every interior
	// node, each test is one gap scan over the sorted prefix; otherwise
	// the prefix's arcs are merged in the kernel's scratch. The last
	// level is the full set itself, so it needs no test.
	c := cs.reset(sorted, alpha)
	c.Clear()
	i := 0
	for i < len(sorted) {
		levelEnd := i + 1
		for levelEnd < len(sorted) && samePower(sorted[levelEnd].Power, sorted[i].Power) {
			levelEnd++
		}
		if levelEnd == len(sorted) {
			break
		}
		for ; i < levelEnd; i++ {
			c.Add(sorted[i].Dir)
		}
		if c.Same() {
			return sorted[:levelEnd]
		}
	}
	return sorted
}

// shrinkOrder is the order shrink-back walks a row in: by discovery
// power, then distance, then id — a strict total order.
func shrinkOrder(a, b Discovery) int {
	if c := cmp.Compare(a.Power, b.Power); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return a.ID - b.ID
}

// QuantizeTags rounds the execution's discovery-power tags up to the
// given broadcast schedule (e.g. the doubling schedule of Figure 1) and
// returns e. It mutates e in place: pass an execution the caller owns,
// or a Clone of one it must keep. The oracle tags each neighbor with
// its exact minimal power; a real protocol run only knows the discrete
// power level of the round that discovered the neighbor. Quantizing the
// oracle's tags reproduces the protocol's coarser shrink-back
// granularity without running the simulator — the evaluation harness
// uses it to match the paper's setup. Tags above the last schedule
// entry are clamped to it.
func QuantizeTags(e *Execution, schedule []float64) *Execution {
	for u := range e.Nodes {
		QuantizeNeighbors(e.Nodes[u].Neighbors, schedule)
	}
	return e
}

// QuantizeNeighbors is the per-node form of QuantizeTags: it rounds the
// row's discovery-power tags up to the schedule in place, so pass a row
// the caller owns. Incremental reconfiguration uses it to keep regrown
// nodes on the same tag granularity as the initial execution.
func QuantizeNeighbors(neighbors []Discovery, schedule []float64) {
	for i, nb := range neighbors {
		neighbors[i].Power = quantizeUp(nb.Power, schedule)
	}
}

func quantizeUp(p float64, schedule []float64) float64 {
	for _, s := range schedule {
		if s >= p {
			return s
		}
	}
	if len(schedule) > 0 {
		return schedule[len(schedule)-1]
	}
	return p
}

func samePower(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff <= distTieTol*(1+scale)
}
