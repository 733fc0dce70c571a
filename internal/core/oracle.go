package core

import (
	"context"
	"slices"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
)

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
	return RunParallel(ctx, pos, m, alpha, 1)
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
	if err := validateInput(pos, m, alpha); err != nil {
		return nil, err
	}
	return runContext(ctx, pos, m, alpha, spatial.New(pos, m.MaxLinkRadius()), workers, nil)
}

// RunNaive is RunContext without the spatial index: every candidate
// gather scans the full placement. It is the reference implementation the
// naive-vs-grid equivalence tests and benchmarks compare against; both
// paths produce identical Executions.
func RunNaive(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64) (*Execution, error) {
	if err := validateInput(pos, m, alpha); err != nil {
		return nil, err
	}
	return runContext(ctx, pos, m, alpha, nil, 1, nil)
}

// RunWithMaxPowerGraph is RunParallel over a caller-built grid that
// also returns G_R, the graph every Result's connectivity is checked
// against. idx must be non-nil and index exactly pos; callers that keep
// a grid over the placement anyway (sessions maintain theirs across
// events) build it once with spatial.New(pos, m.MaxLinkRadius()) and
// pass it here. A node's candidate list is exactly its G_R row, so
// G_R is a by-product of the one grid and the one gather the oracle runs
// anyway: each worker packs the candidates above u into u's ascending
// half row in its own arena. Both outputs are identical at every worker
// count, and G_R equals MaxPowerGraph's.
func RunWithMaxPowerGraph(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64, workers int, idx *spatial.Grid) (*Execution, *graph.Graph, error) {
	if err := validateInput(pos, m, alpha); err != nil {
		return nil, nil, err
	}
	rows := make([][]int32, len(pos))
	exec, err := runContext(ctx, pos, m, alpha, idx, workers, rows)
	if err != nil {
		return nil, nil, err
	}
	return exec, graph.NewFromHalfRows(rows), nil
}

// runContext is the one oracle kernel, over input its caller validated.
// A nil idx (RunNaive) scans the full placement for every gather. A
// non-nil halfRows (one slot per node) is the G_R sink: after node u's
// growing phase, its candidates above u are stored there as its
// ascending half row.
func runContext(ctx context.Context, pos []geom.Point, m radio.Propagation, alpha float64, idx *spatial.Grid, workers int, halfRows [][]int32) (*Execution, error) {
	exec := &Execution{
		Alpha:         alpha,
		Model:         m.Nominal(),
		LinkDependent: !m.DistancePure(),
		Pos:           append([]geom.Point(nil), pos...),
		Nodes:         make([]NodeResult, len(pos)),
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
//
// RunNodeRow and ShrinkGrown return their rows in the runner's staging
// buffer rather than in fresh allocations: each call appends its row
// behind the ones before it, and ResetStage starts the buffer over, so
// a caller that resets once per batch of nodes reuses one buffer for
// every batch.
type NodeRunner struct {
	scr gatherScratch
	cov coverScratch
}

// RunNode computes N_α(u) exactly as the package-level RunNode does,
// reusing the runner's scratch buffers. Its row is a fresh allocation,
// not a staged one.
func (r *NodeRunner) RunNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx *spatial.Grid) NodeResult {
	return runNode(pos, alive, m, alpha, u, idx, &r.scr)
}

// ResetStage starts the runner's staging buffer over. The rows
// RunNodeRow and ShrinkGrown returned before it share memory with the
// rows the calls after it return, so the caller must be done with them,
// or have copied them out, first.
func (r *NodeRunner) ResetStage() {
	r.scr.rows = r.scr.rows[:0]
}

// RunNodeRow is RunNode over candidates the caller already holds: row
// must list exactly u's live G_R neighbors, the nodes RunNode's gather
// would admit, in any order — as a maintained max-power graph's row
// does. It skips the index query and, on a radio with per-link terms,
// the link-range re-check, and yields RunNode's result bit for bit.
// Like RunNode it sorts nothing: grow draws the candidates in discovery
// order from a heap and stops drawing at the first gap-free prefix.
//
// The row is staged (see NodeRunner) and valid until the next
// ResetStage; quantizing its tags in place is safe. Session repairs
// copy it into the node's installed row, and a row is overwritten
// only by its own node's next repair, and only while no Result and no
// checkpoint export can read it.
func (r *NodeRunner) RunNodeRow(pos []geom.Point, m radio.Propagation, alpha float64, u int, row []int32) NodeResult {
	pure := m.DistancePure()
	out := r.scr.cands[:0]
	for _, v := range row {
		d := pos[u].Dist(pos[v])
		key := d
		if !pure {
			key = m.LinkPower(u, int(v), d)
		}
		out = append(out, candidate{id: int(v), dist: d, key: key})
	}
	r.scr.cands = out
	nr := grow(pos, m, alpha, u, out, &r.scr)
	nr.Neighbors = r.scr.stage(nr.Neighbors)
	return nr
}

// ShrinkNeighborsInto is the package-level ShrinkNeighbors on the
// runner's coverage scratch, writing its sorted copy of neighbors into
// dst[:0]'s backing array when it has room (a nil dst allocates one), so
// a caller can shrink many rows into one arena, or one reused buffer,
// instead of a fresh allocation per row. dst must not overlap neighbors.
// The result is the kept prefix; a non-empty neighbors never returns
// neighbors itself.
func (r *NodeRunner) ShrinkNeighborsInto(dst, neighbors []Discovery, alpha float64) []Discovery {
	return r.cov.shrinkNeighbors(dst[:0], neighbors, alpha)
}

// ShrinkGrown is shrink-back for a row fresh from the growing phase —
// RunNode's or RunNodeRow's, its tags possibly quantized — which lets it
// skip the kernel on interior rows: when keepsGrownRow holds it returns
// nr.Neighbors itself, the result the kernel would copy out. Any other
// row goes to the kernel, which writes its kept row into the runner's
// staging buffer, as RunNodeRow stages the grown one.
func (r *NodeRunner) ShrinkGrown(nr NodeResult, alpha float64) []Discovery {
	if keepsGrownRow(nr) {
		return nr.Neighbors
	}
	// Room for the kernel's sorted copy after the staged rows, or in a
	// fresh buffer, so the copy never overlaps nr.Neighbors; only the
	// kept prefix stays staged.
	r.scr.reserve(len(nr.Neighbors))
	start := len(r.scr.rows)
	kept := r.cov.shrinkNeighbors(r.scr.rows[start:start], nr.Neighbors, alpha)
	r.scr.rows = r.scr.rows[:start+len(kept)]
	return kept[:len(kept):len(kept)]
}

// keepsGrownRow reports whether shrink-back keeps every neighbor of a
// row fresh from the growing phase. It holds for an interior row
// already in the kernel's shrinkOrder, which the kernel then walks as
// given. Each of its power levels ends where a growing-phase group ends
// (a group shares one Power tag, and quantizing tags only merges
// adjacent levels), so every strict level prefix is a group prefix
// after which the growing phase found an α-gap. An interior row's full
// set has none, so the kernel's reference covers the whole circle, and
// Cover.Same is then exactly !HasGapSorted over the same normalized
// directions: it fails at every strict prefix and the whole row is
// kept. A boundary row's reference has an α-gap, and a shadowed group
// (keys within tolerance, distances in any order) can break the order;
// both go to the kernel.
func keepsGrownRow(nr NodeResult) bool {
	if nr.Boundary {
		return false
	}
	for i := 1; i < len(nr.Neighbors); i++ {
		if shrinkOrder(nr.Neighbors[i-1], nr.Neighbors[i]) > 0 {
			return false
		}
	}
	return true
}

// gatherScratch holds the per-worker gather buffers the oracle and the
// G_R builder reuse across nodes. cands keeps the last gather's
// candidates until the next gather, which is how the G_R sink reads a
// node's row; arena packs one builder's half rows and is never reset.
// nbrs and dirs are the growing phase's row and direction set, and rows
// is the staging buffer a repair batch's finished rows are copied into.
type gatherScratch struct {
	ids   []int
	cands []candidate
	nbrs  []Discovery
	dirs  []float64
	arena []int32
	rows  []Discovery
}

// query returns the grid's ids within r of p in the scratch's id
// buffer, without the grid's ascending-id sort: every caller either
// re-sorts or filters to a half row it sorts itself.
func (s *gatherScratch) query(idx *spatial.Grid, p geom.Point, r float64) []int {
	s.ids = idx.AppendWithinUnordered(s.ids[:0], p, r)
	return s.ids
}

// stage appends row to the staging buffer and returns the copy,
// capacity-capped so the buffer's later appends never write into it.
func (s *gatherScratch) stage(row []Discovery) []Discovery {
	s.reserve(len(row))
	start := len(s.rows)
	s.rows = append(s.rows, row...)
	return s.rows[start:len(s.rows):len(s.rows)]
}

// reserve makes room for n more staged entries. A full buffer is not
// grown by copying: the next rows go to a fresh one twice its size, and
// the rows already staged stay where they are.
func (s *gatherScratch) reserve(n int) {
	if cap(s.rows)-len(s.rows) < n {
		s.rows = make([]Discovery, 0, max(n, 2*cap(s.rows)))
	}
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
func RunNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx *spatial.Grid) NodeResult {
	return runNode(pos, alive, m, alpha, u, idx, &gatherScratch{})
}

// runNode is the growing phase over u's live G_R neighbors, gathered
// from idx (or, with a nil idx, a full placement scan). Its row is a
// fresh copy of exactly its size.
func runNode(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx *spatial.Grid, scr *gatherScratch) NodeResult {
	nr := grow(pos, m, alpha, u, gatherCandidates(pos, alive, m, m.DistancePure(), u, idx, scr), scr)
	nr.Neighbors = append(make([]Discovery, 0, len(nr.Neighbors)), nr.Neighbors...)
	return nr
}

// grow is the growing phase for every radio: u admits its candidates in
// discovery order, (key, dist, id), one group of (approximately) equal
// keys at a time — the nodes that become reachable at the same power —
// and stops at the first prefix whose direction set has no α-gap. The
// candidates arrive in any order; grow heapifies them in place and pops
// them in that order, so only the admitted prefix (and the heap's
// Θ(k) build) is paid for, not a full sort of every candidate: at paper
// density a node admits about 7 of its 32. A group's members are popped
// while their key ties with its first member's, exactly the groups a
// walk over the sorted list forms. On a distance-pure radio the group's
// power is the nominal power for its farthest member's distance,
// bit-identical to when the oracle hardcoded the power law; otherwise it
// is the group's needed link power. Discovery.Power carries it, so the
// quantized-tag and reconfiguration machinery downstream see one shape.
// The row is built in the scratch's nbrs and returned there, valid until
// the scratch's next growing phase: each caller copies it out once, to a
// fresh row (runNode) or the staging buffer (RunNodeRow).
// cands stays a permutation of the candidates it was given.
func grow(pos []geom.Point, m radio.Propagation, alpha float64, u int, cands []candidate, scr *gatherScratch) NodeResult {
	pure := m.DistancePure()
	nominal := m.Nominal()
	// Directions are kept normalized and sorted incrementally, so the
	// per-group gap test is a linear scan instead of a fresh sort — the
	// arithmetic matches geom.HasGap bit-for-bit. The row scratch grows
	// to the candidate count at once, never by repeated appends.
	nbrs, dirs := slices.Grow(scr.nbrs[:0], len(cands)), scr.dirs[:0]
	defer func() { scr.nbrs, scr.dirs = nbrs[:0], dirs[:0] }()

	heapifyCandidates(cands)
	heap := cands
	for len(heap) > 0 {
		lead, start := heap[0].key, len(nbrs)
		var last candidate
		for len(heap) > 0 && sameDist(heap[0].key, lead) {
			last, heap = popCandidate(heap)
			dir := pos[u].Bearing(pos[last.id])
			nbrs = append(nbrs, Discovery{ID: last.id, Dist: last.dist, Dir: dir})
			dirs = geom.InsertSorted(dirs, dir)
		}
		groupPower := last.key
		if pure {
			groupPower = nominal.PowerFor(last.dist)
		}
		for i := start; i < len(nbrs); i++ {
			nbrs[i].Power = groupPower
		}
		if !geom.HasGapSorted(dirs, alpha) {
			return NodeResult{Neighbors: nbrs, GrowPower: groupPower, Boundary: false}
		}
	}
	// Exhausted all reachable nodes with an α-gap remaining: u is a
	// boundary node and has been broadcasting at maximum power.
	return NodeResult{Neighbors: nbrs, GrowPower: nominal.MaxPower(), Boundary: true}
}

// candidateLess is discovery order, (key, dist, id): a strict total
// order — ids are distinct — so the heap pops one unique sequence at
// every worker count, whatever order the gather produced.
func candidateLess(a, b *candidate) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// heapifyCandidates makes h a binary min-heap in discovery order.
func heapifyCandidates(h []candidate) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownCandidate(h, i)
	}
}

// popCandidate removes the heap's minimum and returns it with the
// shrunk heap. The minimum moves to the slot the heap gives up, so the
// backing array keeps every candidate — the G_R sink reads them all.
func popCandidate(h []candidate) (candidate, []candidate) {
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], top
	if n > 1 {
		siftDownCandidate(h[:n], 0)
	}
	return top, h[:n]
}

// siftDownCandidate restores the heap property below slot i.
func siftDownCandidate(h []candidate, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && candidateLess(&h[r], &h[c]) {
			c = r
		}
		if !candidateLess(&h[c], &x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// gatherCandidates returns u's live G_R neighbors — the nodes inMaxRange
// admits — in gather order, each with its discovery key; grow imposes
// the (key, dist, id) order itself, only as far as it admits. With a
// grid the gather only touches nodes near u: the query radius is
// widened by spatial.QuerySlack and the exact rule re-applied, so both
// paths admit identical candidate sets.
func gatherCandidates(pos []geom.Point, alive []bool, m radio.Propagation, pure bool, u int, idx *spatial.Grid, scr *gatherScratch) []candidate {
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
// grid (Sessions pass their live-node grid, baselines their shared one,
// to avoid rebuilding a grid over the same placement). Each node's half
// row is the part of its max-power gather above u, packed and sorted in
// the worker's arena; the gathers — the Θ(n·k) part — run on the worker
// pool over the read-only grid (one worker runs inline), and the half
// rows feed the packed bulk constructor, so the graph is identical at
// every worker count.
func MaxPowerGraphParallelIndexed(pos []geom.Point, m radio.Propagation, idx *spatial.Grid, workers int) *graph.Graph {
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

// AppendMaxPowerRow appends to dst, in ascending id order, the
// candidates MaxPowerGraph would connect to u: cands[i], at distance
// dist[i] from u, is kept when it is not u and passes the max-power
// link rule. cands may come in any order but must hold every node
// within MaxLinkRadius·(1+1e-12) of u. Sessions use it to maintain
// their ground-truth G_R incrementally instead of rebuilding the full
// graph per snapshot.
func AppendMaxPowerRow(dst []int32, m radio.Propagation, u int, cands []int, dist []float64) []int32 {
	rr, _ := maxPowerRadii(m)
	pure := m.DistancePure()
	start := len(dst)
	for i, v := range cands {
		if v != u && inMaxRange(m, pure, rr, u, v, dist[i]) {
			dst = append(dst, int32(v))
		}
	}
	slices.Sort(dst[start:])
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

// MaxPowerLink reports whether u and v at distance d are G_R neighbors
// under m: the max-power link rule of every G_R construction and of the
// oracle's gather, for one pair.
func MaxPowerLink(m radio.Propagation, u, v int, d float64) bool {
	rr, _ := maxPowerRadii(m)
	return inMaxRange(m, m.DistancePure(), rr, u, v, d)
}

// inMaxRange is the max-power link rule: u and v at distance d are G_R
// neighbors iff d ≤ rr and, on a radio with per-link terms, the link is
// establishable at maximum power. pure is m.DistancePure(), passed in so
// the distance-pure hot paths make no per-candidate interface call.
func inMaxRange(m radio.Propagation, pure bool, rr float64, u, v int, d float64) bool {
	return d <= rr && (pure || m.LinkInRange(u, v, d))
}
