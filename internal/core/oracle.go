package core

import (
	"context"
	"slices"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
)

// Index is the candidate provider the oracle's hot paths query instead
// of scanning the whole placement: Within(p, r) must return every node id
// whose position lies within distance r of p, in ascending id order.
// *spatial.Grid satisfies it. A nil Index means a full placement scan —
// the naive reference path the equivalence tests compare against.
type Index interface {
	Within(p geom.Point, r float64) []int
}

// unorderedIndex is the optional fast path an Index can provide when the
// caller imposes its own total order on the candidates (as the oracle's
// (dist, id) sort does), making the index's ascending-id sort redundant.
type unorderedIndex interface {
	AppendWithinUnordered(dst []int, p geom.Point, r float64) []int
}

// distTieTol is the relative tolerance under which two candidate
// distances (or, on the link-dependent path, two candidate link powers)
// are treated as equal. Equidistant nodes become reachable at the same
// power, so the growing phase discovers them as one group.
const distTieTol = 1e-12

// Run executes CBTC(α) on every node under the exact minimal-power
// semantics of the paper's analysis: node u's final power p_{u,α} is the
// smallest power at which every cone of degree α around u contains a
// reachable node, capped at the model's maximum power P (u is then a
// boundary node).
//
// Equivalently: u discovers neighbors in increasing needed-power order
// (for the pure power law, increasing distance order; equal-power nodes
// as one group) and stops at the first prefix whose direction set has no
// α-gap. The propagation model m decides per-link reachability; the
// distance-pure power law takes the historical distance-ordered path,
// bit-identical to when the oracle hardcoded it.
func Run(pos []geom.Point, m radio.Propagation, alpha float64) (*Execution, error) {
	return RunContext(context.Background(), pos, m, alpha)
}

// ctxCheckStride is how many nodes RunContext processes between context
// polls: frequent enough to abort large runs promptly, rare enough that
// the poll cost vanishes against the per-node O(n log n) work.
const ctxCheckStride = 16

// RunContext is Run with cooperative cancellation: it polls ctx between
// node computations and returns ctx.Err() if the context ends before the
// execution completes. A uniform grid with cell size MaxLinkRadius is
// built once over the placement and shared by every per-node candidate
// gather, making the oracle Θ(n·k) for k in-range neighbors instead of
// Θ(n²).
func RunContext(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64) (*Execution, error) {
	return runContext(ctx, pos, m, alpha, true, 1)
}

// RunParallel is RunContext with the per-node computations fanned across
// a pool of `workers` goroutines (non-positive means GOMAXPROCS; 1 is the
// serial path). Each node's cone test depends only on the read-only
// placement, the shared immutable grid and the deterministic propagation
// model, so workers claim chunks of the node range from an atomic
// counter, keep private gather scratch, and write disjoint Execution
// slots. The output is identical — edge for edge, bit for bit — at every
// worker count; only wall-clock changes. Cancellation is polled per
// worker on its own stride, so latency does not grow with the pool size.
func RunParallel(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64, workers int) (*Execution, error) {
	return runContext(ctx, pos, m, alpha, true, workers)
}

// RunNaive is RunContext without the spatial index: every candidate
// gather scans the full placement. It is the reference implementation the
// naive-vs-grid equivalence tests and benchmarks compare against; both
// paths produce identical Executions.
func RunNaive(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64) (*Execution, error) {
	return runContext(ctx, pos, m, alpha, false, 1)
}

func runContext(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64, indexed bool, workers int) (*Execution, error) {
	if err := validateInput(pos, m, alpha); err != nil {
		return nil, err
	}
	var idx Index
	if indexed {
		idx = spatial.New(pos, m.MaxLinkRadius())
	}
	exec := &Execution{
		Alpha: alpha,
		Model: m.Nominal(),
		Pos:   append([]geom.Point(nil), pos...),
		Nodes: make([]NodeResult, len(pos)),
	}
	workers = ResolveWorkers(workers, len(pos))
	scratch := make([]gatherScratch, workers)
	err := ParallelRange(ctx, len(pos), workers, func(w, u int) {
		exec.Nodes[u] = runNode(pos, nil, m, alpha, u, idx, &scratch[w])
	})
	if err != nil {
		return nil, err
	}
	return exec, nil
}

// NodeRunner is a reusable per-node executor: it owns the gather and
// coverage scratch buffers that bare RunNode, ShrinkNeighbors and
// RemoveNonContributingNeighbors calls would allocate fresh, so callers
// that recompute many nodes (session batch repair, the parallel
// oracle's workers) amortize the buffers across calls. A NodeRunner is
// not safe for concurrent use — give each worker its own.
type NodeRunner struct {
	scr gatherScratch
	cov coverScratch
}

// RunNode computes N_α(u) exactly as the package-level RunNode does,
// reusing the runner's scratch buffers.
func (r *NodeRunner) RunNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index) NodeResult {
	return runNode(pos, alive, m, alpha, u, idx, &r.scr)
}

// ShrinkNeighbors is the package-level ShrinkNeighbors on the runner's
// coverage scratch.
func (r *NodeRunner) ShrinkNeighbors(neighbors []Discovery, alpha float64) []Discovery {
	return r.cov.shrinkNeighbors(neighbors, alpha)
}

// RemoveNonContributingNeighbors is the package-level
// RemoveNonContributingNeighbors on the runner's coverage scratch.
func (r *NodeRunner) RemoveNonContributingNeighbors(neighbors []Discovery, alpha float64) []Discovery {
	return r.cov.removeNonContributing(neighbors, alpha)
}

// gatherScratch holds the per-node gather buffers RunContext reuses
// across nodes; nothing stored in it outlives a single runNode call.
type gatherScratch struct {
	ids    []int
	cands  []candidate
	lcands []linkCandidate
	dirs   []float64
}

// candidate is a node reachable at maximum power, ordered by distance.
// Its bearing is computed lazily at admission time: candidates past the
// stopping prefix never need the (comparatively expensive) atan2.
type candidate struct {
	id   int
	dist float64
}

// linkCandidate is the link-dependent path's candidate: under per-link
// propagation, discovery order is needed-power order, which no longer
// coincides with distance order.
type linkCandidate struct {
	id   int
	dist float64
	need float64
}

// RunNode computes N_α(u) for a single node under the minimal-power
// semantics, considering only nodes v with alive[v] as candidates (a nil
// mask means every node is alive). The per-node form is what incremental
// §4 reconfiguration uses: after a join/leave/move, only the nodes whose
// candidate set changed need recomputing. The candidate provider idx
// restricts the gather to nodes within MaxLinkRadius of u; nil falls
// back to a full placement scan. Both paths admit exactly the same
// candidates.
func RunNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index) NodeResult {
	return runNode(pos, alive, m, alpha, u, idx, &gatherScratch{})
}

// runNode dispatches on the model's purity: the distance-pure power law
// takes the historical hot path on the concrete nominal model — zero
// per-candidate interface dispatch, arithmetic bit-identical to the
// pre-interface oracle — while link-dependent models take the
// need-ordered path with per-link admission.
func runNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index, scr *gatherScratch) NodeResult {
	if m.DistancePure() {
		return runNodePure(pos, alive, m.Nominal(), alpha, u, idx, scr)
	}
	return runNodeLink(pos, alive, m, alpha, u, idx, scr)
}

func runNodePure(pos []geom.Point, alive []bool, m radio.Model, alpha float64, u int, idx Index, scr *gatherScratch) NodeResult {
	cands := reachableCandidates(pos, alive, m, u, idx, scr)

	neighbors := make([]Discovery, 0, len(cands))
	// Directions are kept normalized and sorted incrementally, so the
	// per-group gap test is a linear scan instead of a fresh sort — the
	// arithmetic matches geom.HasGap bit-for-bit.
	dirs := scr.dirs[:0]
	defer func() { scr.dirs = dirs[:0] }()

	i := 0
	for i < len(cands) {
		// Admit the whole group of (approximately) equidistant nodes: they
		// become reachable at the same power.
		groupEnd := i + 1
		for groupEnd < len(cands) && sameDist(cands[groupEnd].dist, cands[i].dist) {
			groupEnd++
		}
		groupDist := cands[groupEnd-1].dist
		groupPower := m.PowerFor(groupDist)
		for ; i < groupEnd; i++ {
			c := cands[i]
			dir := pos[u].Bearing(pos[c.id])
			neighbors = append(neighbors, Discovery{
				ID:    c.id,
				Dist:  c.dist,
				Dir:   dir,
				Power: groupPower,
			})
			dirs = geom.InsertSorted(dirs, dir)
		}
		if !geom.HasGapSorted(dirs, alpha) {
			return NodeResult{
				Neighbors: neighbors,
				GrowPower: groupPower,
				Boundary:  false,
			}
		}
	}
	// Exhausted all reachable nodes with an α-gap remaining: u is a
	// boundary node and has been broadcasting at maximum power.
	return NodeResult{
		Neighbors: neighbors,
		GrowPower: m.MaxPower(),
		Boundary:  true,
	}
}

// runNodeLink is the growing phase under link-dependent propagation:
// candidates are admitted per link, ordered by needed power, and grouped
// by (approximately) equal need — the power at which they all become
// reachable. Discovery.Power carries the group's needed power, so the
// quantized-tag and reconfiguration machinery downstream see the same
// shape the pure path produces.
func runNodeLink(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index, scr *gatherScratch) NodeResult {
	cands := linkCandidates(pos, alive, m, u, idx, scr)

	neighbors := make([]Discovery, 0, len(cands))
	dirs := scr.dirs[:0]
	defer func() { scr.dirs = dirs[:0] }()

	i := 0
	for i < len(cands) {
		groupEnd := i + 1
		for groupEnd < len(cands) && sameDist(cands[groupEnd].need, cands[i].need) {
			groupEnd++
		}
		groupPower := cands[groupEnd-1].need
		for ; i < groupEnd; i++ {
			c := cands[i]
			dir := pos[u].Bearing(pos[c.id])
			neighbors = append(neighbors, Discovery{
				ID:    c.id,
				Dist:  c.dist,
				Dir:   dir,
				Power: groupPower,
			})
			dirs = geom.InsertSorted(dirs, dir)
		}
		if !geom.HasGapSorted(dirs, alpha) {
			return NodeResult{
				Neighbors: neighbors,
				GrowPower: groupPower,
				Boundary:  false,
			}
		}
	}
	return NodeResult{
		Neighbors: neighbors,
		GrowPower: m.MaxPower(),
		Boundary:  true,
	}
}

// reachableCandidates returns the live nodes within communication range
// R of u, sorted by distance (ties broken by index for determinism).
// With an index the gather only touches nodes near u: the query radius is
// widened by spatial.QuerySlack and the naive path's exact hypot-based
// predicate re-applied, so both paths admit identical candidate sets.
func reachableCandidates(pos []geom.Point, alive []bool, m radio.Model, u int, idx Index, scr *gatherScratch) []candidate {
	rr := m.MaxRadius * (1 + distTieTol)
	out := scr.cands[:0]
	admit := func(v int, pv geom.Point) {
		if v == u || (alive != nil && !alive[v]) {
			return
		}
		d := pos[u].Dist(pv)
		if d <= rr {
			out = append(out, candidate{id: v, dist: d})
		}
	}
	switch {
	case idx == nil:
		for v, pv := range pos {
			admit(v, pv)
		}
	default:
		// The (dist, id) sort below imposes its own total order, so the
		// query can skip the index's ascending-id pass when available.
		qr := rr * (1 + spatial.QuerySlack)
		if g, ok := idx.(unorderedIndex); ok {
			scr.ids = g.AppendWithinUnordered(scr.ids[:0], pos[u], qr)
		} else {
			scr.ids = append(scr.ids[:0], idx.Within(pos[u], qr)...)
		}
		for _, v := range scr.ids {
			admit(v, pos[v])
		}
	}
	scr.cands = out[:0]
	// (dist, id) is a strict total order — ids are distinct — so any
	// comparison sort yields the same unique sequence; SortFunc avoids
	// sort.Slice's reflection overhead on this hot path.
	slices.SortFunc(out, func(a, b candidate) int {
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	return out
}

// linkCandidates returns the live nodes whose link to u is establishable
// at maximum power under link-dependent propagation, sorted by
// (need, dist, id). The grid query is widened to the model's conservative
// MaxLinkRadius bound and the exact per-link predicate re-applied, so the
// indexed and naive paths admit identical candidate sets.
func linkCandidates(pos []geom.Point, alive []bool, m radio.Propagation, u int, idx Index, scr *gatherScratch) []linkCandidate {
	rr := m.MaxLinkRadius() * (1 + distTieTol)
	out := scr.lcands[:0]
	admit := func(v int, pv geom.Point) {
		if v == u || (alive != nil && !alive[v]) {
			return
		}
		d := pos[u].Dist(pv)
		if d <= rr && m.LinkInRange(u, v, d) {
			out = append(out, linkCandidate{id: v, dist: d, need: m.LinkPower(u, v, d)})
		}
	}
	switch {
	case idx == nil:
		for v, pv := range pos {
			admit(v, pv)
		}
	default:
		qr := rr * (1 + spatial.QuerySlack)
		if g, ok := idx.(unorderedIndex); ok {
			scr.ids = g.AppendWithinUnordered(scr.ids[:0], pos[u], qr)
		} else {
			scr.ids = append(scr.ids[:0], idx.Within(pos[u], qr)...)
		}
		for _, v := range scr.ids {
			admit(v, pos[v])
		}
	}
	scr.lcands = out[:0]
	// (need, dist, id) is a strict total order — ids are distinct — so
	// the discovery sequence is unique and worker-count invariant.
	slices.SortFunc(out, func(a, b linkCandidate) int {
		if a.need != b.need {
			if a.need < b.need {
				return -1
			}
			return 1
		}
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	return out
}

func sameDist(a, b float64) bool {
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

// MaxPowerGraph returns G_R: the graph induced by every node transmitting
// with maximum power — for the pure power law, edges between all pairs at
// distance ≤ R; for link-dependent models, pairs whose link is
// establishable at maximum power. It builds a throwaway grid over the
// placement, replacing the quadratic all-pairs scan with per-node radius
// queries; MaxPowerGraphIndexed accepts a caller-maintained index
// instead.
func MaxPowerGraph(pos []geom.Point, m radio.Propagation) *graph.Graph {
	return MaxPowerGraphIndexed(pos, m, spatial.New(pos, m.MaxLinkRadius()))
}

// MaxPowerGraphIndexed is MaxPowerGraph over a caller-supplied candidate
// index (nil falls back to the naive all-pairs scan). The edge set is
// identical on both paths: the index pre-filters and the exact per-link
// predicate decides. Both paths emit per-node ascending half rows, so
// the graph is bulk-built into one packed arena instead of edge by edge.
func MaxPowerGraphIndexed(pos []geom.Point, m radio.Propagation, idx Index) *graph.Graph {
	rows := make([][]int32, len(pos))
	if idx == nil {
		rr, _ := maxPowerRadii(m)
		pure := m.DistancePure()
		for u := 0; u < len(pos); u++ {
			var row []int32
			for v := u + 1; v < len(pos); v++ {
				d := pos[u].Dist(pos[v])
				if d <= rr && (pure || m.LinkInRange(u, v, d)) {
					row = append(row, int32(v))
				}
			}
			rows[u] = row
		}
		return graph.NewFromHalfRows(rows)
	}
	var scratch []int
	for u := 0; u < len(pos); u++ {
		// The grid returns ascending ids, so the v > u filter keeps the
		// half row sorted by construction.
		scratch = appendMaxPowerNeighbors(scratch[:0], pos, m, u, idx)
		var row []int32
		for _, v := range scratch {
			if v > u {
				row = append(row, int32(v))
			}
		}
		rows[u] = row
	}
	return graph.NewFromHalfRows(rows)
}

// MaxPowerGraphParallel is MaxPowerGraph with the per-node radius queries
// fanned across a worker pool (non-positive workers means GOMAXPROCS);
// MaxPowerGraphParallelIndexed reuses a caller-maintained index instead
// of building one. The distance filtering — the Θ(n·k) part — runs in
// parallel over the read-only grid; the edge assembly is a cheap serial
// pass, so the graph is identical to the serial build at every worker
// count.
func MaxPowerGraphParallel(pos []geom.Point, m radio.Propagation, workers int) *graph.Graph {
	return MaxPowerGraphParallelIndexed(pos, m, spatial.New(pos, m.MaxLinkRadius()), workers)
}

// MaxPowerGraphParallelIndexed is MaxPowerGraphParallel over a
// caller-supplied candidate index (Sessions pass their live-node grid to
// avoid rebuilding one over the same placement).
func MaxPowerGraphParallelIndexed(pos []geom.Point, m radio.Propagation, idx Index, workers int) *graph.Graph {
	workers = ResolveWorkers(workers, len(pos))
	if workers <= 1 {
		return MaxPowerGraphIndexed(pos, m, idx)
	}
	rows := make([][]int32, len(pos))
	scratch := make([][]int, workers)
	// ctx is inert here: the gather is pure computation with no caller to
	// cancel it (Engine.MaxPower has no context parameter).
	_ = ParallelRange(context.Background(), len(pos), workers, func(w, u int) {
		scratch[w] = appendMaxPowerNeighbors(scratch[w][:0], pos, m, u, idx)
		var row []int32
		for _, v := range scratch[w] {
			if v > u {
				row = append(row, int32(v))
			}
		}
		rows[u] = row
	})
	// The parallel gather produced exactly the ascending half rows the
	// packed bulk constructor wants; assembly is one serial arena fill.
	return graph.NewFromHalfRows(rows)
}

// AppendMaxPowerNeighbors appends the ids of indexed nodes within
// maximum-power range of pos[u] — exactly the nodes MaxPowerGraph would
// connect to u. Sessions use it to maintain their ground-truth G_R
// incrementally instead of rebuilding the full graph per snapshot.
func AppendMaxPowerNeighbors(dst []int, pos []geom.Point, m radio.Propagation, u int, idx Index) []int {
	return appendMaxPowerNeighbors(dst, pos, m, u, idx)
}

// maxPowerRadii is the single source of the max-power reachability
// predicate's radii: the tolerance-carrying exact distance bound rr, and
// the slack-widened query radius qr whose superset the exact recheck
// filters. Every G_R construction site must derive its candidates from
// these two values, or the incrementally-maintained session G_R would
// drift from the from-scratch builds. For distance-pure models `dist ≤
// rr` IS the edge predicate; link-dependent models additionally apply
// LinkInRange per candidate.
func maxPowerRadii(m radio.Propagation) (rr, qr float64) {
	rr = m.MaxLinkRadius() * (1 + distTieTol)
	return rr, rr * (1 + spatial.QuerySlack)
}

// appendMaxPowerNeighbors appends every indexed v ≠ u whose link to u is
// establishable at maximum power, in the index's ascending-id order.
func appendMaxPowerNeighbors(dst []int, pos []geom.Point, m radio.Propagation, u int, idx Index) []int {
	rr, qr := maxPowerRadii(m)
	if m.DistancePure() {
		for _, v := range idx.Within(pos[u], qr) {
			if v != u && pos[u].Dist(pos[v]) <= rr {
				dst = append(dst, v)
			}
		}
		return dst
	}
	for _, v := range idx.Within(pos[u], qr) {
		if v == u {
			continue
		}
		d := pos[u].Dist(pos[v])
		if d <= rr && m.LinkInRange(u, v, d) {
			dst = append(dst, v)
		}
	}
	return dst
}
