package core

import (
	"slices"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
)

// Action is what a reconfiguration event requires of the enclosing
// protocol after the Reconfigurator has updated its local state.
type Action int

const (
	// ActionNone means the local state was repaired in place; no protocol
	// activity is needed.
	ActionNone Action = iota + 1
	// ActionRegrow means an α-gap opened: the node must rerun the
	// CBTC(α) growing phase, starting from RegrowStartPower().
	ActionRegrow
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionRegrow:
		return "regrow"
	default:
		return "unknown"
	}
}

// Reconfigurator is the per-node reconfiguration state machine of §4.
// It maintains the node's neighbor set across joinᵤ(v), leaveᵤ(v) and
// aChangeᵤ(v) events detected by the Neighbor Discovery Protocol, and
// tells the protocol when a full regrow is needed.
//
// The neighbor set is a compact id-sorted slice (neighbor counts are
// small and sessions build one machine per recomputed node, so the
// slice beats a map on both allocation and iteration order — every
// derived list is deterministic by construction). The Reconfigurator is
// not safe for concurrent use; the discrete-event simulator serializes
// all events of a node.
type Reconfigurator struct {
	alpha float64
	model radio.Model
	nbrs  []Discovery // current neighbor set, ascending ID
	dirs  []float64   // scratch: sorted direction set for gap tests
	dist  []Discovery // scratch: shrink's farthest-first order
	cover geom.Cover  // scratch: shrink's coverage kernel
}

// NewReconfigurator builds the state machine from the node's CBTC
// result. The initial list is copied, never retained, so callers may
// pass a reused buffer.
func NewReconfigurator(alpha float64, model radio.Model, initial []Discovery) *Reconfigurator {
	r := &Reconfigurator{
		alpha: alpha,
		model: model,
		nbrs:  make([]Discovery, 0, len(initial)),
	}
	for _, d := range initial {
		r.set(d)
	}
	return r
}

// find returns the position of id in the sorted neighbor slice.
func (r *Reconfigurator) find(id int) (int, bool) {
	return slices.BinarySearchFunc(r.nbrs, id, func(d Discovery, id int) int {
		return d.ID - id
	})
}

// set inserts d, replacing any existing entry with the same ID.
func (r *Reconfigurator) set(d Discovery) {
	i, ok := r.find(d.ID)
	if ok {
		r.nbrs[i] = d
		return
	}
	r.nbrs = slices.Insert(r.nbrs, i, d)
}

// sortedDirs fills the reusable direction scratch with the current
// bearings in ascending (normalized) order, ready for HasGapSorted.
func (r *Reconfigurator) sortedDirs() []float64 {
	out := r.dirs[:0]
	for _, d := range r.nbrs {
		out = geom.InsertSorted(out, d.Dir)
	}
	r.dirs = out
	return out
}

// hasGap is the §4 gap-α test over the current neighbor set, run on the
// reusable sorted scratch instead of MaxGap's per-call sort copy.
func (r *Reconfigurator) hasGap() bool {
	return geom.HasGapSorted(r.sortedDirs(), r.alpha)
}

// Leave handles a leaveᵤ(v) event: v's beacons stopped. If dropping v
// opens an α-gap the node must regrow (the paper restarts CBTC from
// p(rad⁻_{u,α}) rather than from p₀).
func (r *Reconfigurator) Leave(id int) Action {
	i, ok := r.find(id)
	if !ok {
		return ActionNone
	}
	r.nbrs = slices.Delete(r.nbrs, i, i+1)
	if r.hasGap() {
		return ActionRegrow
	}
	return ActionNone
}

// Join handles a joinᵤ(v) event: a beacon from a new neighbor. The node
// records the direction and needed power, then — as in the shrink-back
// operation — removes the farthest neighbors whose removal leaves the
// coverage unchanged.
func (r *Reconfigurator) Join(d Discovery) Action {
	r.set(d)
	r.shrink()
	return ActionNone
}

// AngleChange handles an aChangeᵤ(v) event: v's bearing moved. If the
// new direction set has an α-gap the node regrows; otherwise it shrinks
// as after a join.
func (r *Reconfigurator) AngleChange(id int, newDir float64) Action {
	i, ok := r.find(id)
	if !ok {
		return ActionNone
	}
	r.nbrs[i].Dir = geom.Normalize(newDir)
	if r.hasGap() {
		return ActionRegrow
	}
	r.shrink()
	return ActionNone
}

// shrink removes neighbors farthest-first while coverage is unchanged,
// stopping at the first neighbor whose removal would reduce coverage.
// Candidates are ordered by (distance descending, id ascending) — a
// total order, so removal decisions are deterministic.
//
// The coverage kernel starts from the normalized direction set, and
// each candidate's direction leaves its query set. After AngleChange
// the set covers the whole circle (a gap would have regrown instead),
// so each test is one delete from the sorted directions plus one gap
// scan. The kernel is reset on every call, so stopping one direction
// short of r.nbrs carries nothing over.
func (r *Reconfigurator) shrink() {
	r.dist = append(r.dist[:0], r.nbrs...)
	slices.SortFunc(r.dist, func(a, b Discovery) int {
		if a.Dist != b.Dist {
			if a.Dist > b.Dist {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	r.cover.Reset(r.sortedDirs(), r.alpha)
	for _, d := range r.dist {
		i, ok := r.find(d.ID)
		if !ok {
			continue
		}
		r.nbrs = slices.Delete(r.nbrs, i, i+1)
		r.cover.Remove(geom.Normalize(d.Dir))
		if !r.cover.Same() {
			r.set(d) // removal changed coverage: keep and stop
			return
		}
	}
}

// Neighbors returns the current neighbor set sorted by ID.
func (r *Reconfigurator) Neighbors() []Discovery {
	return slices.Clone(r.nbrs)
}

// Has reports whether id is currently a neighbor.
func (r *Reconfigurator) Has(id int) bool {
	_, ok := r.find(id)
	return ok
}

// Directions returns the current direction set, in neighbor-id order.
func (r *Reconfigurator) Directions() []float64 {
	out := make([]float64, len(r.nbrs))
	for i, d := range r.nbrs {
		out[i] = d.Dir
	}
	return out
}

// HasGap reports whether the current direction set leaves an α-gap.
func (r *Reconfigurator) HasGap() bool { return r.hasGap() }

// RegrowStartPower returns p(rad⁻_{u,α}) for the current neighbor set —
// the power the paper restarts the growing phase from. With no neighbors
// it falls back to a small fraction of maximum power.
func (r *Reconfigurator) RegrowStartPower() float64 {
	var maxDist float64
	for _, d := range r.nbrs {
		if d.Dist > maxDist {
			maxDist = d.Dist
		}
	}
	if maxDist == 0 {
		return r.model.MaxPower() / 1024
	}
	return r.model.PowerFor(maxDist)
}
