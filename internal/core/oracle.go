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
// *spatial.Grid satisfies it. For RunNode a nil Index means a full
// placement scan — the naive path RunNaive takes; the G_R builders
// require a non-nil one.
type Index interface {
	Within(p geom.Point, r float64) []int
}

// unorderedIndex is the optional fast path an Index can provide when the
// caller imposes its own total order on the candidates (as the oracle's
// (key, dist, id) sort does), making the index's ascending-id sort
// redundant.
type unorderedIndex interface {
	AppendWithinUnordered(dst []int, p geom.Point, r float64) []int
}

// distTieTol is the relative tolerance under which two candidate keys —
// distances on a distance-pure radio, link powers otherwise — are
// treated as equal. Equidistant nodes become reachable at the same
// power, so the growing phase discovers them as one group. It is also
// the max-power link rule's relative slack on the radius.
const distTieTol = 1e-12

// Run executes CBTC(α) on every node under the exact minimal-power
// semantics of the paper's analysis: node u's final power p_{u,α} is the
// smallest power at which every cone of degree α around u contains a
// reachable node, capped at the model's maximum power P (u is then a
// boundary node).
//
// Equivalently: u discovers its G_R neighbors in increasing needed-power
// order (for the pure power law, increasing distance order; equal-power
// nodes as one group) and stops at the first prefix whose direction set
// has no α-gap. Every radio runs the same growing phase; the propagation
// model m decides which links exist at maximum power (the max-power link
// rule G_R is built from) and what each one costs, and its purity only
// selects the discovery sort key.
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
	return runContext(ctx, pos, m, alpha, true, 1, nil)
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
	return runContext(ctx, pos, m, alpha, true, workers, nil)
}

// RunNaive is RunContext without the spatial index: every candidate
// gather scans the full placement. It is the reference implementation the
// naive-vs-grid equivalence tests and benchmarks compare against; both
// paths produce identical Executions.
func RunNaive(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64) (*Execution, error) {
	return runContext(ctx, pos, m, alpha, false, 1, nil)
}

// RunWithMaxPowerGraph is RunParallel that also returns G_R, the graph
// every Result's connectivity is checked against. A node's candidate
// list is exactly its G_R row, so G_R is a by-product of the one grid and
// the one gather the oracle runs anyway: each worker packs the candidates
// above u into u's ascending half row in its own arena. Both outputs are
// identical at every worker count, and G_R equals MaxPowerGraph's.
func RunWithMaxPowerGraph(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64, workers int) (*Execution, *graph.Graph, error) {
	rows := make([][]int32, len(pos))
	exec, err := runContext(ctx, pos, m, alpha, true, workers, rows)
	if err != nil {
		return nil, nil, err
	}
	return exec, graph.NewFromHalfRows(rows), nil
}

// runContext is the one oracle kernel. A non-nil halfRows (one slot per
// node) is the G_R sink: after node u's growing phase, its candidates
// above u are stored there as its ascending half row.
func runContext(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64, indexed bool, workers int, halfRows [][]int32) (*Execution, error) {
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
		scr := &scratch[w]
		exec.Nodes[u] = runNode(pos, nil, m, alpha, u, idx, scr)
		if halfRows != nil {
			start := len(scr.arena)
			for _, c := range scr.cands {
				if c.id > u {
					scr.arena = append(scr.arena, int32(c.id))
				}
			}
			halfRows[u] = scr.sealRow(start)
		}
	})
	if err != nil {
		return nil, err
	}
	return exec, nil
}

// NodeRunner is a reusable per-node executor: it owns the gather and
// coverage scratch buffers that bare RunNode and ShrinkNeighbors calls
// would allocate fresh, so callers that recompute many nodes (session
// batch repair, the parallel oracle's workers) amortize the buffers
// across calls. A NodeRunner is not safe for concurrent use — give each
// worker its own.
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

// gatherScratch holds the per-worker gather buffers the oracle and the
// G_R builder reuse across nodes. cands keeps the last gather's
// candidates until the next gather, which is how the G_R sink reads a
// node's row; arena packs one builder's half rows and is never reset.
type gatherScratch struct {
	ids   []int
	cands []candidate
	dirs  []float64
	arena []int32
}

// query returns the index's ids within r of p in the scratch's id
// buffer, skipping the index's ascending-id sort when it offers that:
// every caller either re-sorts or filters to a half row it sorts itself.
func (s *gatherScratch) query(idx Index, p geom.Point, r float64) []int {
	if g, ok := idx.(unorderedIndex); ok {
		s.ids = g.AppendWithinUnordered(s.ids[:0], p, r)
	} else {
		s.ids = append(s.ids[:0], idx.Within(p, r)...)
	}
	return s.ids
}

// sealRow sorts the ids appended to the arena since start and returns
// them as one half row, capacity-capped so the arena's later appends
// never write into it.
func (s *gatherScratch) sealRow(start int) []int32 {
	row := s.arena[start:len(s.arena):len(s.arena)]
	slices.Sort(row)
	return row
}

// candidate is a node reachable at maximum power. key is its discovery
// order: the distance on a distance-pure radio, the link's needed power
// otherwise. Its bearing is computed lazily at admission time:
// candidates past the stopping prefix never need the (comparatively
// expensive) atan2.
type candidate struct {
	id   int
	dist float64
	key  float64
}

// RunNode computes N_α(u) for a single node under the minimal-power
// semantics, considering only nodes v with alive[v] as candidates (a nil
// mask means every node is alive). The per-node form is what incremental
// §4 reconfiguration uses: after a join/leave/move, only the nodes whose
// candidate set changed need recomputing. The candidates are exactly u's
// live G_R neighbors; idx restricts the gather to nodes near u, and nil
// falls back to a full placement scan that admits the same set.
func RunNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index) NodeResult {
	return runNode(pos, alive, m, alpha, u, idx, &gatherScratch{})
}

// runNode is the growing phase for every radio: u admits its candidates
// in key order, one group of (approximately) equal keys at a time — the
// nodes that become reachable at the same power — and stops at the first
// prefix whose direction set has no α-gap. On a distance-pure radio the
// group's power is the nominal power for its farthest member's distance,
// bit-identical to when the oracle hardcoded the power law; otherwise it
// is the group's needed link power. Discovery.Power carries it, so the
// quantized-tag and reconfiguration machinery downstream see one shape.
func runNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index, scr *gatherScratch) NodeResult {
	pure := m.DistancePure()
	nominal := m.Nominal()
	cands := gatherCandidates(pos, alive, m, pure, u, idx, scr)

	neighbors := make([]Discovery, 0, len(cands))
	// Directions are kept normalized and sorted incrementally, so the
	// per-group gap test is a linear scan instead of a fresh sort — the
	// arithmetic matches geom.HasGap bit-for-bit.
	dirs := scr.dirs[:0]
	defer func() { scr.dirs = dirs[:0] }()

	i := 0
	for i < len(cands) {
		groupEnd := i + 1
		for groupEnd < len(cands) && sameDist(cands[groupEnd].key, cands[i].key) {
			groupEnd++
		}
		groupPower := cands[groupEnd-1].key
		if pure {
			groupPower = nominal.PowerFor(cands[groupEnd-1].dist)
		}
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
		GrowPower: nominal.MaxPower(),
		Boundary:  true,
	}
}

// gatherCandidates returns u's live G_R neighbors — the nodes inMaxRange
// admits — sorted by (key, dist, id). With an index the gather only
// touches nodes near u: the query radius is widened by
// spatial.QuerySlack and the exact rule re-applied, so both paths admit
// identical candidate sets.
func gatherCandidates(pos []geom.Point, alive []bool, m radio.Propagation, pure bool, u int, idx Index, scr *gatherScratch) []candidate {
	rr, qr := maxPowerRadii(m)
	out := scr.cands[:0]
	admit := func(v int, pv geom.Point) {
		if v == u || (alive != nil && !alive[v]) {
			return
		}
		d := pos[u].Dist(pv)
		if !inMaxRange(m, pure, rr, u, v, d) {
			return
		}
		key := d
		if !pure {
			key = m.LinkPower(u, v, d)
		}
		out = append(out, candidate{id: v, dist: d, key: key})
	}
	switch {
	case idx == nil:
		for v, pv := range pos {
			admit(v, pv)
		}
	default:
		for _, v := range scr.query(idx, pos[u], qr) {
			admit(v, pos[v])
		}
	}
	scr.cands = out
	// (key, dist, id) is a strict total order — ids are distinct — so any
	// comparison sort yields the same unique sequence at every worker
	// count; SortFunc avoids sort.Slice's reflection overhead on this hot
	// path.
	slices.SortFunc(out, func(a, b candidate) int {
		if a.key != b.key {
			if a.key < b.key {
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
// with maximum power, one edge per pair inMaxRange admits. It builds a
// throwaway grid over the placement and runs the one half-row builder,
// MaxPowerGraphParallelIndexed, on a single worker.
func MaxPowerGraph(pos []geom.Point, m radio.Propagation) *graph.Graph {
	return MaxPowerGraphParallelIndexed(pos, m, spatial.New(pos, m.MaxLinkRadius()), 1)
}

// MaxPowerGraphParallel is MaxPowerGraph with the per-node radius queries
// fanned across a worker pool (non-positive workers means GOMAXPROCS).
func MaxPowerGraphParallel(pos []geom.Point, m radio.Propagation, workers int) *graph.Graph {
	return MaxPowerGraphParallelIndexed(pos, m, spatial.New(pos, m.MaxLinkRadius()), workers)
}

// MaxPowerGraphParallelIndexed builds G_R over a caller-supplied, non-nil
// candidate index (Sessions pass their live-node grid, baselines their
// shared one, to avoid rebuilding a grid over the same placement). Each
// node's half row is the part of its max-power gather above u, packed
// and sorted in the worker's arena; the gathers — the Θ(n·k) part — run
// on the worker pool over the read-only index (one worker runs inline),
// and the half rows feed the packed bulk constructor, so the graph is
// identical at every worker count.
func MaxPowerGraphParallelIndexed(pos []geom.Point, m radio.Propagation, idx Index, workers int) *graph.Graph {
	workers = ResolveWorkers(workers, len(pos))
	rows := make([][]int32, len(pos))
	scratch := make([]gatherScratch, workers)
	rr, qr := maxPowerRadii(m)
	pure := m.DistancePure()
	// ctx is inert here: the gather is pure computation with no caller to
	// cancel it (Engine.MaxPower has no context parameter).
	_ = ParallelRange(context.Background(), len(pos), workers, func(w, u int) {
		scr := &scratch[w]
		start := len(scr.arena)
		for _, v := range scr.query(idx, pos[u], qr) {
			if v > u && inMaxRange(m, pure, rr, u, v, pos[u].Dist(pos[v])) {
				scr.arena = append(scr.arena, int32(v))
			}
		}
		rows[u] = scr.sealRow(start)
	})
	return graph.NewFromHalfRows(rows)
}

// AppendMaxPowerNeighbors appends the ids of indexed nodes within
// maximum-power range of pos[u] — exactly the nodes MaxPowerGraph would
// connect to u — in the index's ascending-id order. Sessions use it to
// maintain their ground-truth G_R incrementally instead of rebuilding
// the full graph per snapshot.
func AppendMaxPowerNeighbors(dst []int, pos []geom.Point, m radio.Propagation, u int, idx Index) []int {
	rr, qr := maxPowerRadii(m)
	pure := m.DistancePure()
	for _, v := range idx.Within(pos[u], qr) {
		if v != u && inMaxRange(m, pure, rr, u, v, pos[u].Dist(pos[v])) {
			dst = append(dst, v)
		}
	}
	return dst
}

// maxPowerRadii is the single source of the max-power rule's radii: the
// tolerance-carrying exact distance bound rr, and the slack-widened query
// radius qr whose superset the exact recheck filters. Every G_R
// construction site and the oracle's gather derive their candidates from
// these two values, or the incrementally-maintained session G_R would
// drift from the from-scratch builds.
func maxPowerRadii(m radio.Propagation) (rr, qr float64) {
	rr = m.MaxLinkRadius() * (1 + distTieTol)
	return rr, rr * (1 + spatial.QuerySlack)
}

// inMaxRange is the max-power link rule: u and v at distance d are G_R
// neighbors iff d ≤ rr and, on a radio with per-link terms, the link is
// establishable at maximum power. pure is m.DistancePure(), passed in so
// the distance-pure hot paths make no per-candidate interface call.
func inMaxRange(m radio.Propagation, pure bool, rr float64, u, v int, d float64) bool {
	return d <= rr && (pure || m.LinkInRange(u, v, d))
}
