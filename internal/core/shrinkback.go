package core

import (
	"cmp"
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
// The result is a new Execution whose neighbor sets are N^s_α(u);
// GrowPower is preserved because reconfiguration beacons must still use
// the basic algorithm's power (§4).
func ShrinkBack(e *Execution) *Execution {
	out := &Execution{
		Alpha: e.Alpha,
		Model: e.Model,
		Pos:   append([]geom.Point(nil), e.Pos...),
		Nodes: make([]NodeResult, len(e.Nodes)),
	}
	var cs coverScratch
	for u, nr := range e.Nodes {
		// shrinkNeighbors returns a fresh copy of a non-empty list, so the
		// input needs no clone; an empty list is nil, as Clone leaves it.
		if len(nr.Neighbors) == 0 {
			nr.Neighbors = nil
		} else {
			nr.Neighbors = cs.shrinkNeighbors(nr.Neighbors, e.Alpha)
		}
		out.Nodes[u] = nr
	}
	return out
}

// ShrinkNeighbors performs the shrink-back operation for a single node:
// it keeps the minimal prefix of discovery-power levels whose α-coverage
// equals the coverage of the full set. The distributed protocol uses it
// directly when computing (possibly incorrectly reduced) beacon powers.
func ShrinkNeighbors(neighbors []Discovery, alpha float64) []Discovery {
	var cs coverScratch
	return cs.shrinkNeighbors(neighbors, alpha)
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

func (cs *coverScratch) shrinkNeighbors(neighbors []Discovery, alpha float64) []Discovery {
	if len(neighbors) == 0 {
		return neighbors
	}
	sorted := append([]Discovery(nil), neighbors...)
	slices.SortFunc(sorted, func(a, b Discovery) int {
		if c := cmp.Compare(a.Power, b.Power); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return a.ID - b.ID
	})

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

// QuantizeTags returns an execution whose discovery-power tags are
// rounded up to the given broadcast schedule (e.g. the doubling schedule
// of Figure 1). The oracle tags each neighbor with its exact minimal
// power; a real protocol run only knows the discrete power level of the
// round that discovered the neighbor. Quantizing the oracle's tags
// reproduces the protocol's coarser shrink-back granularity without
// running the simulator — the evaluation harness uses it to match the
// paper's setup. Tags above the last schedule entry are clamped to it.
func QuantizeTags(e *Execution, schedule []float64) *Execution {
	out := e.Clone()
	for u := range out.Nodes {
		for i, nb := range out.Nodes[u].Neighbors {
			out.Nodes[u].Neighbors[i].Power = quantizeUp(nb.Power, schedule)
		}
	}
	return out
}

// QuantizeNeighbors is the per-node form of QuantizeTags: it returns a
// copy of the neighbor list with discovery-power tags rounded up to the
// schedule. Incremental reconfiguration uses it to keep regrown nodes on
// the same tag granularity as the initial execution.
func QuantizeNeighbors(neighbors []Discovery, schedule []float64) []Discovery {
	out := append([]Discovery(nil), neighbors...)
	for i, nb := range out {
		out[i].Power = quantizeUp(nb.Power, schedule)
	}
	return out
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
