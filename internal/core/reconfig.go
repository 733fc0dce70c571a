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
// small and sessions build a machine for each observer whose table an
// event touches, from a MachinePool, so the slice beats a map on both
// allocation and iteration order — every derived list is deterministic
// by construction). The Reconfigurator is not safe for concurrent use;
// the discrete-event simulator serializes all events of a node.
type Reconfigurator struct {
	alpha float64
	model radio.Model
	nbrs  []Discovery // current neighbor set, ascending ID
	// scr is the gap-test and shrink scratch: the pool's when the
	// machine came from a MachinePool, otherwise own.
	scr *machineScratch
	own machineScratch
}

// machineScratch is the per-call scratch of a §4 state machine, which
// machines that never run concurrently may share.
type machineScratch struct {
	dirs  []float64  // sorted direction set for gap tests
	cover geom.Cover // shrink's coverage kernel
}

// NewReconfigurator builds the state machine from the node's CBTC
// result. The initial list is copied, never retained, so callers may
// pass a reused buffer.
func NewReconfigurator(alpha float64, model radio.Model, initial []Discovery) *Reconfigurator {
	r := new(Reconfigurator)
	r.Reset(alpha, model, initial)
	return r
}

// Reset makes r the machine NewReconfigurator(alpha, model, initial)
// would build, reusing r's buffers. The zero Reconfigurator is ready
// for Reset. The set is the initial list copied and sorted by ID once;
// an ID the list repeats keeps its last entry, as set would leave it.
func (r *Reconfigurator) Reset(alpha float64, model radio.Model, initial []Discovery) {
	r.alpha, r.model = alpha, model
	nbrs := append(r.nbrs[:0], initial...)
	slices.SortStableFunc(nbrs, func(a, b Discovery) int { return a.ID - b.ID })
	w := 0
	for _, d := range nbrs {
		if w > 0 && nbrs[w-1].ID == d.ID {
			nbrs[w-1] = d
			continue
		}
		nbrs[w] = d
		w++
	}
	r.nbrs = nbrs[:w]
}

// scratch returns the machine's gap-test and shrink scratch.
func (r *Reconfigurator) scratch() *machineScratch {
	if r.scr != nil {
		return r.scr
	}
	return &r.own
}

// MachinePool builds §4 state machines for a caller that drives many
// at once, one call at a time, and drops them together — as a session
// does with the machines of the observers one event batch touches.
// Pooled machines share one gap-test and shrink scratch and take their
// neighbor sets from one arena, so a warmed pool builds machines
// without allocating. The zero MachinePool is ready for use; a pool is
// not safe for concurrent use.
type MachinePool struct {
	scr      machineScratch
	machines []*Reconfigurator
	used     int
	arena    []Discovery
}

// Get returns a pooled machine in the state NewReconfigurator(alpha,
// model, initial) would build. It is valid until the next Release.
func (p *MachinePool) Get(alpha float64, model radio.Model, initial []Discovery) *Reconfigurator {
	if p.used == len(p.machines) {
		p.machines = append(p.machines, &Reconfigurator{scr: &p.scr})
	}
	r := p.machines[p.used]
	p.used++
	// The set's region of the arena has room for the initial list; a
	// set that outgrows it moves to a slice of its own. An arena that
	// outgrows its array leaves the earlier sets in the old one.
	start := len(p.arena)
	p.arena = append(p.arena, initial...)
	r.nbrs = p.arena[start:start:len(p.arena)]
	r.Reset(alpha, model, initial)
	return r
}

// Release returns every machine Get built to the pool.
func (p *MachinePool) Release() {
	p.used = 0
	p.arena = p.arena[:0]
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
	scr := r.scratch()
	out := slices.Grow(scr.dirs[:0], len(r.nbrs))
	for _, d := range r.nbrs {
		out = geom.InsertSorted(out, d.Dir)
	}
	scr.dirs = out
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
	r.shrink(r.sortedDirs())
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
	dirs := r.sortedDirs()
	if geom.HasGapSorted(dirs, r.alpha) {
		return ActionRegrow
	}
	r.shrink(dirs)
	return ActionNone
}

// shrink removes neighbors farthest-first while coverage is unchanged,
// stopping at the first neighbor whose removal would reduce coverage.
// Candidates are ordered by (distance descending, id ascending) — a
// total order, so removal decisions are deterministic.
//
// Every candidate tried before the last was removed, so the next one
// is always the farthest neighbor left: a linear scan finds it, and the
// common shrink — one that stops at its first candidate — sorts
// nothing. The coverage kernel starts from dirs, the current set's
// sortedDirs (AngleChange passes the ones its gap test just sorted),
// and each candidate's direction leaves its query set. After
// AngleChange the set covers the whole circle (a gap would have
// regrown instead), so each test is one delete from the sorted
// directions plus one gap scan. The kernel is reset on every call, so
// stopping one direction short of r.nbrs carries nothing over.
func (r *Reconfigurator) shrink(dirs []float64) {
	cover := &r.scratch().cover
	cover.Reset(dirs, r.alpha)
	for len(r.nbrs) > 0 {
		i := r.farthest()
		d := r.nbrs[i]
		r.nbrs = slices.Delete(r.nbrs, i, i+1)
		cover.Remove(geom.Normalize(d.Dir))
		if !cover.Same() {
			r.nbrs = slices.Insert(r.nbrs, i, d) // removal changed coverage: keep and stop
			return
		}
	}
}

// farthest returns the position of the neighbor first in shrink's
// order: the greatest distance, the smallest id among equal ones. The
// slice ascends by id, so a strict comparison keeps the first of a tie.
func (r *Reconfigurator) farthest() int {
	best := 0
	for i := 1; i < len(r.nbrs); i++ {
		if r.nbrs[i].Dist > r.nbrs[best].Dist {
			best = i
		}
	}
	return best
}

// Neighbors returns the current neighbor set sorted by ID.
func (r *Reconfigurator) Neighbors() []Discovery {
	return slices.Clone(r.nbrs)
}

// AppendNeighbors appends the current neighbor set, sorted by ID, to dst
// and returns the extended slice: Neighbors into a caller's reused
// buffer.
func (r *Reconfigurator) AppendNeighbors(dst []Discovery) []Discovery {
	return append(dst, r.nbrs...)
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
