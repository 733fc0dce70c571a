package cbtc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/spatial"
	"cbtc/internal/stats"
)

// ErrBadEvent reports a Session event referencing an unknown or departed
// node.
var ErrBadEvent = errors.New("cbtc: invalid session event")

// Session maintains a long-lived, evolving CBTC(α) topology under the
// paper's §4 reconfiguration semantics. Join, Leave and Move events
// repair the topology incrementally. Every live node within maximum
// radius R of an event site observes the event: its §4 state machine
// classifies it (a leaveᵤ/aChangeᵤ that opens an α-gap means the node
// must regrow; anything else is an in-place repair). Only the event
// nodes and the observers whose installed beacon p_{u,α} reaches a site
// are then recomputed to the exact minimal-power fixed point — as in
// §4, a node reacts only to changes it can hear. Every other node keeps
// its state untouched: its growing phase stopped at a cone-covering
// prefix of nearer candidates, which the event did not change. When the
// recompute set is large, the per-node recomputations are fanned across
// the engine's worker pool (WithWorkers); the repaired state is
// identical at every worker count.
//
// The maintained fixed point is exact: at any moment the live topology
// equals what a fresh Engine.Run over the current live placement would
// produce, so all of the paper's guarantees (connectivity for α ≤ 5π/6,
// the optimization theorems) hold continuously.
//
// A Session is safe for concurrent use; events are serialized
// internally. Node IDs are stable: departed nodes keep their index and
// are reported as isolated, and Join always appends a fresh ID.
type Session struct {
	eng *Engine
	// workers caps this session's repair parallelism. Standalone
	// sessions inherit the engine's pool; fleet shards are pinned to
	// their plan's inner budget so M concurrent sessions don't
	// multiply into M×GOMAXPROCS goroutines.
	workers int

	mu     sync.Mutex
	pos    []Point
	alive  []bool
	nodes  []core.NodeResult
	recs   []*core.Reconfigurator
	idx    *spatial.Grid // live nodes only; maintained across events
	stats  SessionStats
	cached *Result

	// Incremental-snapshot state, maintained only when the optimization
	// stack is per-node local (incremental == true, i.e. pairwise removal
	// is off). Repairs patch exactly the recomputed nodes' arcs; Snapshot
	// then takes copy-on-write clones of the maintained graphs — O(live
	// nodes) slice-header copies — instead of rebuilding the full
	// topology and ground-truth G_R from scratch, and later repairs copy
	// only the rows they actually touch.
	incremental bool
	pruned      [][]core.Discovery // per-node neighbor lists after op1/degree pruning
	nalpha      *graph.Digraph     // pruned directed relation N_α
	g           *graph.Graph       // its symmetrization per the optimization stack
	gr          *graph.Graph       // G_R over live nodes; departed nodes isolated
	grScratch   []int              // reusable max-power neighbor buffer

	// live is the maintained live-node count, so LiveCount and Observe
	// never rescan the liveness vector.
	live int

	// O(changed) Observe state, maintained on incremental stacks only:
	// comps tracks live connectivity across repairs (union-find with
	// rebuild-on-split), and radius caches each live node's NodeRadius
	// over g, recomputed only for nodes whose adjacency rows a repair
	// touched or whose neighbors moved. The pend* slices accumulate one
	// repair's delta — filled by depart, relocate and patchArcs, drained
	// by applyObserveDelta at the end of recompute.
	comps      *graph.LiveComponents
	radius     []float64
	pendDepart []int
	pendMoved  []int
	pendAdd    []graph.Edge
	pendRemove []graph.Edge

	// mark/markGen implement allocation-free set membership for the
	// per-event dedup passes (observer unions, recompute id sets): node u
	// is in the current set iff mark[u] == markGen.
	mark    []int
	markGen int

	// Battery state, allocated only for engines built WithBattery (which
	// implies the incremental stack). battery[u] is node u's residual
	// energy; Tick drains each live node by drain × p(radius[u]) and
	// clamps at zero. Observe folds the residual moments in one ascending
	// pass — a pure function of (battery, alive), so restored sessions
	// observe bitwise-identically — which stays within the battery tick's
	// cost model: the drain itself is already Θ(live) per tick.
	battery []float64
}

// SessionStats aggregates the reconfiguration activity a Session has
// seen, in the vocabulary of §4.
type SessionStats struct {
	// Joins, Leaves and Moves count the events applied to the session.
	Joins, Leaves, Moves int
	// AngleChanges counts aChangeᵤ(v) observations: a still-reachable
	// neighbor v whose bearing moved.
	AngleChanges int
	// Regrows counts observers whose event opened an α-gap, forcing the
	// node to rerun its growing phase (from p(rad⁻) — Theorem 4.1's
	// restart rule).
	Regrows int
	// Repairs counts observers whose state was fixed in place without a
	// regrow (neighbor inserted, dropped, or shrunk back).
	Repairs int
}

// EventReport describes how one Join/Leave/Move event propagated.
type EventReport struct {
	// AngleChanges, Regrows and Repairs are this event's contribution to
	// the session statistics.
	AngleChanges, Regrows, Repairs int
	// Recomputed lists the nodes whose neighbor state was rebuilt —
	// the event node plus every live node whose installed beacon reaches
	// an event site (a join or leave position, either end of a move).
	Recomputed []int
}

// NewSession runs CBTC(α) on the placement and returns a Session
// maintaining the result under reconfiguration events. The initial
// computation uses the engine's worker pool. Cancelling ctx aborts it.
func (e *Engine) NewSession(ctx context.Context, nodes []Point) (*Session, error) {
	return e.newSession(ctx, nodes, e.workers)
}

// newSession is NewSession with an explicit worker budget; fleets pin
// their shards' sessions to the shard plan's inner budget.
func (e *Engine) newSession(ctx context.Context, nodes []Point, workers int) (*Session, error) {
	exec, err := core.RunParallel(ctx, nodes, e.prop, e.cfg.Alpha, workers)
	if err != nil {
		return nil, err
	}
	if e.schedule != nil {
		exec = core.QuantizeTags(exec, e.schedule)
	}
	return e.sessionFromExec(ctx, nodes, exec, workers)
}

// NewProtocolSession builds a Session whose initial topology comes from
// the distributed Hello/Ack protocol of the paper's Figure 1
// (Engine.Simulate's execution path) instead of the exact minimal-power
// oracle. Nodes start from the power levels and discovery rows the
// protocol run actually produced — including the effects of lossy
// channels and AoA noise configured in sim. Subsequent §4 events repair
// that state with the session's exact oracle machinery, under the same
// rule as every session: a node is recomputed when an event site lies
// within reach of its beacon, so a protocol-built node keeps its
// protocol state until an event it can hear. Such a node's neighbors
// are unchanged and still cover the cones they covered, so a
// connectivity-preserving protocol run stays connectivity-preserving
// under repair. The simulator is deterministic in sim.Seed, so the
// session's whole lifetime is reproducible at any worker count. Fleets
// use this constructor for MemberProtocol members.
func (e *Engine) NewProtocolSession(ctx context.Context, nodes []Point, sim SimOptions) (*Session, error) {
	return e.newProtocolSession(ctx, nodes, sim, e.workers)
}

// newProtocolSession is NewProtocolSession with an explicit worker
// budget. Protocol tags are already drawn from the protocol's discrete
// broadcast schedule, so the engine's quantization schedule — a model of
// exactly that discreteness for oracle tags — is not reapplied.
func (e *Engine) newProtocolSession(ctx context.Context, nodes []Point, sim SimOptions, workers int) (*Session, error) {
	exec, err := e.protoExec(ctx, nodes, sim)
	if err != nil {
		return nil, err
	}
	return e.sessionFromExec(ctx, nodes, exec, workers)
}

// sessionFromExec builds the live session state around a completed
// growing-phase execution — the shared back half of the oracle and
// protocol constructors.
func (e *Engine) sessionFromExec(ctx context.Context, nodes []Point, exec *core.Execution, workers int) (*Session, error) {
	s := &Session{
		eng:         e,
		workers:     workers,
		pos:         append([]Point(nil), nodes...),
		alive:       make([]bool, len(nodes)),
		nodes:       exec.Nodes,
		recs:        make([]*core.Reconfigurator, len(nodes)),
		idx:         spatial.New(nodes, e.prop.MaxLinkRadius()),
		incremental: !e.opts.PairwiseRemoval,
	}
	if e.battery {
		s.battery = make([]float64, len(nodes))
		for i := range s.battery {
			s.battery[i] = e.batteryCap
		}
	}
	for i := range nodes {
		s.alive[i] = true
		s.recs[i] = core.NewReconfigurator(e.cfg.Alpha, e.model, exec.Nodes[i].Neighbors)
	}
	s.live = len(nodes)
	if s.incremental {
		n := len(nodes)
		s.pruned = make([][]core.Discovery, n)
		pruneWorkers := core.ResolveWorkers(workers, n)
		runners := make([]core.NodeRunner, pruneWorkers)
		// The per-node prune (coverage arithmetic when shrink-back is on)
		// is embarrassingly parallel, like the oracle itself.
		if err := core.ParallelRange(ctx, n, pruneWorkers, func(w, u int) {
			s.pruned[u] = e.pruneNeighbors(exec.Nodes[u].Neighbors, &runners[w])
		}); err != nil {
			return nil, err
		}
		rows := make([][]int32, n)
		for u := range s.pruned {
			rows[u] = core.SuccessorRow(nil, s.pruned[u])
		}
		s.nalpha = graph.NewDigraphFromRows(rows)
		if e.opts.AsymmetricRemoval {
			s.g = s.nalpha.MutualSubgraph()
		} else {
			s.g = s.nalpha.SymmetricClosure()
		}
		// Reuse the session's own grid — it indexes exactly these nodes.
		s.gr = core.MaxPowerGraphParallelIndexed(nodes, e.prop, s.idx, workers)
		s.comps = graph.NewLiveComponents(s.g, s.alive)
		s.radius = make([]float64, n)
		if err := core.ParallelRange(ctx, n, pruneWorkers, func(_, u int) {
			s.radius[u] = graph.NodeRadius(s.g, nodes, u)
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// pruneNeighbors applies the engine's per-node-local optimizations in
// BuildTopology's order: shrink-back (op1), then the non-contributing
// degree reduction, on the worker's runner scratch. Pairwise removal is
// global and never goes through here.
func (e *Engine) pruneNeighbors(nbrs []core.Discovery, r *core.NodeRunner) []core.Discovery {
	if e.opts.ShrinkBack {
		nbrs = r.ShrinkNeighbors(nbrs, e.cfg.Alpha)
	}
	if e.opts.NonContributing {
		nbrs = r.RemoveNonContributingNeighbors(nbrs, e.cfg.Alpha)
	}
	return nbrs
}

// Join introduces a new node at p — the §4 join scenario. It returns
// the node's ID (stable for the session's lifetime) and a report of the
// repair the event triggered. It is a one-event ApplyBatch.
func (s *Session) Join(p Point) (int, EventReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, _ := s.applyBatchLocked([]Event{JoinEvent(p)}) // a join always validates
	return rep.JoinIDs[0], rep.EventReport
}

// Leave removes a node — the §4 leave scenario (a crash or departure;
// in the protocol, detected by missed beacons). Neighbors whose cone
// coverage loses its last member in some direction regrow; the rest
// repair in place. It is a one-event ApplyBatch.
func (s *Session) Leave(id int) (EventReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.applyBatchLocked([]Event{LeaveEvent(id)})
	return rep.EventReport, err
}

// Move relocates a live node to p. Observers that still reach the node
// see an aChangeᵤ event (bearing moved), nodes it left behind see a
// leaveᵤ, nodes it approached see a joinᵤ; the moved node itself regrows
// from its new position. Gaps opened by any of these trigger regrows,
// exactly as §4 prescribes. It is a one-event ApplyBatch.
func (s *Session) Move(id int, p Point) (EventReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.applyBatchLocked([]Event{MoveEvent(id, p)})
	return rep.EventReport, err
}

// admit performs the structural half of a join: it allocates the next
// node id, inserts p into every maintained structure, and links the
// newcomer into the incremental ground-truth G_R.
func (s *Session) admit(p Point) int {
	id := len(s.pos)
	s.pos = append(s.pos, p)
	s.alive = append(s.alive, true)
	s.nodes = append(s.nodes, core.NodeResult{})
	s.recs = append(s.recs, nil)
	s.idx.Add(id, p)
	s.live++
	if s.incremental {
		s.pruned = append(s.pruned, nil)
		s.nalpha.Grow(1)
		s.g.Grow(1)
		s.gr.Grow(1)
		s.patchGR(id)
		// The newcomer starts as a singleton component with radius 0; the
		// recompute's edge patches union and refresh it.
		s.comps.Join(id)
		s.radius = append(s.radius, 0)
	}
	if s.battery != nil {
		s.battery = append(s.battery, s.eng.batteryCap)
	}
	s.stats.Joins++
	return id
}

// depart performs the structural half of a leave: liveness, the spatial
// index, and the incremental G_R.
func (s *Session) depart(id int) {
	s.alive[id] = false
	s.idx.Remove(id)
	s.live--
	if s.incremental {
		s.gr.IsolateNode(id)
		// The topology-edge removals themselves are recorded by patchArcs
		// during the recompute; the departure is folded into the component
		// structure alongside them.
		s.pendDepart = append(s.pendDepart, id)
	}
	s.stats.Leaves++
}

// relocate performs the structural half of a move and returns the old
// position.
func (s *Session) relocate(id int, p Point) Point {
	old := s.pos[id]
	s.pos[id] = p
	s.idx.Move(id, p)
	if s.incremental {
		s.gr.IsolateNode(id)
		s.patchGR(id)
		s.pendMoved = append(s.pendMoved, id)
	}
	s.stats.Moves++
	return old
}

// observeLeave classifies a leaveᵤ(id) event through each observer's §4
// state machine, accumulating the regrow/repair counts into rep.
// Observers without a state machine yet (nodes admitted earlier in the
// same batch, awaiting their first recompute) never knew id and are
// skipped, exactly as a non-neighbor is.
func (s *Session) observeLeave(id int, observers []int, rep *EventReport) {
	for _, u := range observers {
		rc := s.recs[u]
		if rc == nil || !rc.Has(id) {
			continue
		}
		if rc.Leave(id) == core.ActionRegrow {
			rep.Regrows++
		} else {
			rep.Repairs++
		}
	}
}

// observeMove classifies a move of node id to p at each observer: an
// aChangeᵤ for observers that still reach it, a leaveᵤ for those it
// left, a joinᵤ for those it approached. Observers without a state
// machine yet treat a reachable mover as a joinᵤ.
func (s *Session) observeMove(id int, p Point, observers []int, rep *EventReport) {
	prop := s.eng.prop
	pure := prop.DistancePure()
	r := prop.MaxLinkRadius() * (1 + rangeSlack)
	for _, u := range observers {
		rc := s.recs[u]
		was := rc != nil && rc.Has(id)
		d := s.pos[u].Dist(p)
		// Pure models keep the historical slack-widened distance test;
		// link models re-check the exact per-link range predicate.
		reaches := d <= r && (pure || prop.LinkInRange(u, id, d))
		switch {
		case was && reaches:
			rep.AngleChanges++
			if rc.AngleChange(id, s.pos[u].Bearing(p)) == core.ActionRegrow {
				rep.Regrows++
			} else {
				rep.Repairs++
			}
		case was && !reaches:
			if rc.Leave(id) == core.ActionRegrow {
				rep.Regrows++
			} else {
				rep.Repairs++
			}
		case !was && reaches:
			// A joinᵤ observation: always an in-place repair (§4).
			rep.Repairs++
		}
	}
}

// applyStats folds one event report's classification counts into the
// session totals.
func (s *Session) applyStats(rep *EventReport) {
	s.stats.AngleChanges += rep.AngleChanges
	s.stats.Regrows += rep.Regrows
	s.stats.Repairs += rep.Repairs
}

// patchGR re-links node id in the maintained ground-truth G_R: an edge
// to every live node within maximum-power range of its current position,
// under exactly MaxPowerGraph's distance predicate. The spatial index
// holds exactly the live nodes, so the incremental graph stays equal to
// a fresh MaxPowerGraph with departed nodes isolated.
func (s *Session) patchGR(id int) {
	s.grScratch = core.AppendMaxPowerNeighbors(s.grScratch[:0], s.pos, s.eng.prop, id, s.idx)
	for _, v := range s.grScratch {
		s.gr.AddEdge(id, v)
	}
}

// Snapshot returns the live topology as a Result — the same artifact
// Engine.Run produces, over the session's current placement. Departed
// nodes appear isolated, in both the topology and its ground-truth
// G_R, so Result.PreservesConnectivity keeps its meaning. Snapshots are
// cached between events.
//
// When the optimization stack is per-node local (pairwise removal off),
// the snapshot is assembled from the incrementally-maintained graphs —
// repairs only ever rebuilt the recomputed nodes' arcs — and costs one
// clone instead of a full topology + G_R rebuild. With pairwise removal
// (a global transformation) the full rebuild runs as before.
func (s *Session) Snapshot() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked is Snapshot with the session lock already held; Tick
// and Observe use it for their atomic apply-and-observe paths.
func (s *Session) snapshotLocked() (*Result, error) {
	if s.cached != nil {
		return s.cached, nil
	}
	if s.incremental {
		exec := &core.Execution{
			Alpha: s.eng.cfg.Alpha,
			Model: s.eng.model,
			Pos:   append([]Point(nil), s.pos...),
			Nodes: make([]core.NodeResult, len(s.pos)),
		}
		for u := range exec.Nodes {
			exec.Nodes[u] = core.NodeResult{
				Neighbors: s.pruned[u],
				GrowPower: s.nodes[u].GrowPower,
				Boundary:  s.nodes[u].Boundary,
			}
		}
		g := s.g.Clone()
		topo := &core.Topology{
			Exec:   exec,
			Nalpha: s.nalpha.Clone(),
			G:      g,
			Gpre:   g, // equal when pairwise removal is off, as in BuildTopology
			Opts:   s.eng.opts,
		}
		// The radius cache already holds NodeRadius(g, pos, u) for every
		// slot (0 for departed nodes), so the snapshot folds it instead of
		// re-deriving the radius/degree tables from scratch — the assembled
		// Result is bitwise identical either way.
		s.cached = newResultFromRadii(s.pos, s.eng.model, topo, s.gr.Clone(), s.radius)
		return s.cached, nil
	}
	exec := &core.Execution{
		Alpha: s.eng.cfg.Alpha,
		Model: s.eng.model,
		Pos:   append([]Point(nil), s.pos...),
		Nodes: append([]core.NodeResult(nil), s.nodes...),
	}
	topo, err := core.BuildTopology(exec, s.eng.opts)
	if err != nil {
		return nil, fmt.Errorf("cbtc: session snapshot: %w", err)
	}
	gr := core.MaxPowerGraphParallel(s.pos, s.eng.prop, s.workers)
	for u := range s.alive {
		if !s.alive[u] {
			gr.IsolateNode(u)
		}
	}
	s.cached = newResultWithGR(s.pos, s.eng.model, topo, gr)
	return s.cached, nil
}

// Stats returns the cumulative reconfiguration statistics.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TickStats is a cheap aggregate read of a session's live topology —
// the per-tick observation a Fleet accumulates. All metrics range over
// live nodes only: departed nodes contribute neither components nor
// degree mass, unlike Result.Components which counts their isolated
// slots.
type TickStats struct {
	// Live is the number of live nodes.
	Live int
	// Edges is the number of edges of the live topology G.
	Edges int
	// Components is the number of connected components among live nodes.
	Components int
	// AvgDegree and AvgRadius are Table 1's statistics over live nodes.
	AvgDegree, AvgRadius float64
	// Energy is the summed growing-phase power p_{u,α} of live nodes —
	// the §5 energy figure of merit.
	Energy float64
	// Residual is the mean residual battery over live nodes; zero when
	// the engine has no battery model.
	Residual float64
	// EnergyVar is the population variance of residual battery over live
	// nodes — the balance figure of merit of the lifetime workloads: a
	// topology that drains evenly keeps it low. Zero without a battery
	// model.
	EnergyVar float64
}

// TickSeries accumulates a TickStats series through mergeable streaming
// moments — the one aggregate shape shared by fleet members
// (FleetNetworkReport.Series), whole fleets (FleetReport.Series), the
// fleetd HTTP surface and the fleetsim tables, so every layer names the
// same quantities the same way.
type TickSeries struct {
	// Degree, Radius, Components and Energy stream the corresponding
	// TickStats fields, one observation per recorded tick.
	Degree, Radius, Components, Energy stats.Stream
	// Residual and EnergyVar stream the battery fields of TickStats; on
	// engines without a battery model they observe zeros.
	Residual, EnergyVar stats.Stream
}

// Observe folds one tick's stats into the series.
func (ts *TickSeries) Observe(s TickStats) {
	ts.Degree.Add(s.AvgDegree)
	ts.Radius.Add(s.AvgRadius)
	ts.Components.Add(float64(s.Components))
	ts.Energy.Add(s.Energy)
	ts.Residual.Add(s.Residual)
	ts.EnergyVar.Add(s.EnergyVar)
}

// Merge folds another series into this one. Merging in a fixed order
// keeps the combined floating-point moments deterministic.
func (ts *TickSeries) Merge(o *TickSeries) {
	ts.Degree.Merge(&o.Degree)
	ts.Radius.Merge(&o.Radius)
	ts.Components.Merge(&o.Components)
	ts.Energy.Merge(&o.Energy)
	ts.Residual.Merge(&o.Residual)
	ts.EnergyVar.Merge(&o.EnergyVar)
}

// Observe computes the session's current TickStats. For engines whose
// optimization stack is per-node local the read is O(changed): repairs
// maintain the component structure, the live/edge counters and the
// per-node radius cache, so observing costs the maintained counters
// plus one flat summation over the cached values — no BFS, no radius
// recomputation, no Result assembly. With pairwise removal (a global
// transformation with no per-node delta) it derives the stats from the
// (cached) Snapshot via the reference full-scan path.
func (s *Session) Observe() (TickStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observeLocked()
}

func (s *Session) observeLocked() (TickStats, error) {
	if !s.incremental {
		snap, err := s.snapshotLocked()
		if err != nil {
			return TickStats{}, err
		}
		return observeGraph(snap.G, s.alive, s.pos, s.nodes), nil
	}
	ts := TickStats{Live: s.live, Edges: s.g.EdgeCount(), Components: s.comps.Count()}
	// The radius and energy sums fold the cached per-node values in the
	// same ascending order as the reference scan, so the incremental
	// stats are bitwise identical to observeGraph's — not just close —
	// and stay so across checkpoint/restore.
	for u, alive := range s.alive {
		if !alive {
			continue
		}
		ts.AvgRadius += s.radius[u]
		ts.Energy += s.nodes[u].GrowPower
	}
	if ts.Live > 0 {
		ts.AvgDegree = 2 * float64(ts.Edges) / float64(ts.Live)
		ts.AvgRadius /= float64(ts.Live)
	}
	s.observeBattery(&ts)
	return ts, nil
}

// observeBattery fills the battery fields of ts by folding the residual
// moments over live nodes in ascending order — a pure function of the
// battery and liveness vectors, so a restored session observes
// bitwise-identical values. The Θ(live) pass only exists on battery
// engines, whose ticks already pay Θ(live) for the drain itself.
func (s *Session) observeBattery(ts *TickStats) {
	if s.battery == nil || ts.Live == 0 {
		return
	}
	var sum, sumSq float64
	for u, alive := range s.alive {
		if alive {
			b := s.battery[u]
			sum += b
			sumSq += b * b
		}
	}
	n := float64(ts.Live)
	mean := sum / n
	ts.Residual = mean
	v := sumSq/n - mean*mean
	if v < 0 { // floating-point cancellation on near-equal residuals
		v = 0
	}
	ts.EnergyVar = v
}

// drainLocked charges every live node one tick's transmit energy —
// drain × p(radius), the nominal power of its installed broadcast radius
// scaled by the engine's drain coefficient — clamping batteries at zero.
// It runs inside Tick, after the batch's repairs installed the tick's
// radii and before the observation, so drained energy reflects the
// topology actually transmitted on. A no-battery engine makes it a
// no-op.
func (s *Session) drainLocked() {
	if s.battery == nil || s.eng.batteryDrain == 0 {
		return
	}
	drain := s.eng.batteryDrain
	m := s.eng.model
	for u, alive := range s.alive {
		if !alive {
			continue
		}
		b := s.battery[u]
		if b == 0 {
			continue
		}
		nb := b - drain*m.PowerFor(s.radius[u])
		if nb < 0 {
			nb = 0
		}
		s.battery[u] = nb
	}
}

// Depleted returns the ids of live nodes whose battery has emptied, in
// ascending order — the deaths a lifetime driver converts into Leave
// events. It returns nil on engines without a battery model.
func (s *Session) Depleted() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depletedLocked()
}

func (s *Session) depletedLocked() []int {
	if s.battery == nil {
		return nil
	}
	var out []int
	for u, alive := range s.alive {
		if alive && s.battery[u] == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Residual returns node id's residual battery energy — the full capacity
// until the first tick drains it, zero once depleted, and the last value
// for departed nodes. Engines without a battery model report 0. Like
// Position it panics on an id the session never allocated.
func (s *Session) Residual(id int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("cbtc: session has no node %d (len %d)", id, len(s.pos)))
	}
	if s.battery == nil {
		return 0
	}
	return s.battery[id]
}

// observeGraph computes TickStats from scratch over g — the reference
// full-scan path: a component BFS plus a fresh per-node radius pass.
// The pairwise-removal stack observes through it every tick; on
// incremental stacks it is the oracle the maintained path is tested
// (and benchmarked) against.
func observeGraph(g *graph.Graph, alive []bool, pos []Point, nodes []core.NodeResult) TickStats {
	ts := TickStats{Edges: g.EdgeCount(), Components: liveComponents(g, alive)}
	for u, a := range alive {
		if !a {
			continue
		}
		ts.Live++
		ts.AvgRadius += graph.NodeRadius(g, pos, u)
		ts.Energy += nodes[u].GrowPower
	}
	if ts.Live > 0 {
		ts.AvgDegree = 2 * float64(ts.Edges) / float64(ts.Live)
		ts.AvgRadius /= float64(ts.Live)
	}
	return ts
}

// liveComponents counts the connected components of g restricted to the
// live nodes. Edges never touch departed nodes (repairs isolate them),
// so a BFS seeded at live nodes only ever visits live nodes.
func liveComponents(g *graph.Graph, alive []bool) int {
	visited := make([]bool, g.Len())
	var stack []int32
	count := 0
	for u, live := range alive {
		if !live || visited[u] {
			continue
		}
		count++
		visited[u] = true
		stack = append(stack[:0], int32(u))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Row(int(x)) {
				if !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return count
}

// Len returns the number of node slots ever allocated, including
// departed nodes.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pos)
}

// LiveCount returns the number of live nodes, from the maintained
// counter — O(1), no scan of the liveness vector.
func (s *Session) LiveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// NodeRadius returns node id's current transmission radius — the length
// of its longest incident topology edge, 0 for isolated or departed
// nodes. On incremental stacks it reads the maintained per-node cache;
// with pairwise removal it derives the answer from the (cached)
// Snapshot. Like Position it panics on an id the session never
// allocated.
func (s *Session) NodeRadius(id int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("cbtc: session has no node %d (len %d)", id, len(s.pos)))
	}
	if !s.alive[id] {
		return 0, nil
	}
	if s.incremental {
		return s.radius[id], nil
	}
	snap, err := s.snapshotLocked()
	if err != nil {
		return 0, err
	}
	return graph.NodeRadius(snap.G, s.pos, id), nil
}

// Alive reports whether id identifies a live node.
func (s *Session) Alive(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return id >= 0 && id < len(s.alive) && s.alive[id]
}

// Position returns node id's current position (its last position if it
// departed). It panics on an id the session never allocated, matching
// the Graph accessors.
func (s *Session) Position(id int) Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("cbtc: session has no node %d (len %d)", id, len(s.pos)))
	}
	return s.pos[id]
}

// Engine returns the engine whose configuration the session maintains.
func (s *Session) Engine() *Engine { return s.eng }

// rangeSlack widens the observer test slightly beyond R so that
// borderline candidates (admitted by the oracle's own distance
// tolerance) are never missed. Over-inclusion only costs a recompute;
// under-inclusion would let stale state survive.
const rangeSlack = 1e-9

// withinRange returns the live nodes other than self within the
// propagation model's link-radius bound of p, in ascending id order. The
// spatial index — which holds exactly the live nodes — answers the
// radius query; the slightly widened query radius plus the exact
// distance re-check reproduce the full-scan predicate. The bound is the
// observer radius: no link — even a favorably-shadowed one — can exceed
// it, so every node that could hear an event at p is included.
func (s *Session) withinRange(self int, p Point) []int {
	r := s.eng.prop.MaxLinkRadius() * (1 + rangeSlack)
	out := make([]int, 0, 16)
	for _, v := range s.idx.Within(p, r*(1+spatial.QuerySlack)) {
		if v == self {
			continue
		}
		if s.pos[v].Dist(p) <= r {
			out = append(out, v)
		}
	}
	return out
}

// reachSlack widens a node's beacon reach in appendReached. It must
// dominate two tolerances: the oracle's distTieTol grouping (a candidate
// within 1e-12·(1+d) of the stopping group's distance — or, on a
// link-dependent radio, its power — joins that group) and the rounding
// of the PowerFor→RangeFor round trip that turns GrowPower back into a
// distance. Over-inclusion only costs a recompute; under-inclusion would
// let stale state survive.
const reachSlack = 1e-9

// appendReached appends to dst the observers of site q of event node id
// whose installed beacon reaches q: on the power law, those within
// RangeBound(GrowPower) of q; on a link-dependent radio, those whose
// link to id at q needs at most GrowPower. Only they can change. The
// growing phase admits candidates in needed-power order and stops at
// the first group that leaves no α-gap, whose power is GrowPower; a
// candidate beyond it appearing, vanishing or moving leaves that prefix,
// and so the node's discoveries, its §4 state machine and its pruned
// arcs, exactly as they were. A boundary node has GrowPower = P and so
// hears every site within range. GrowPower is read as it stood before
// the batch: repairs install new state only after the structural pass.
func (s *Session) appendReached(dst []int, id int, q Point, observers []int) []int {
	prop := s.eng.prop
	pure := prop.DistancePure()
	for _, u := range observers {
		grow := s.nodes[u].GrowPower
		d := s.pos[u].Dist(q)
		var reached bool
		if pure {
			reached = d <= prop.RangeBound(grow)*(1+reachSlack)+reachSlack
		} else {
			reached = prop.LinkPower(u, id, d) <= grow*(1+reachSlack)+reachSlack
		}
		if reached {
			dst = append(dst, u)
		}
	}
	return dst
}

// repairParallelMin is the recompute-set size below which a repair
// stays serial: each recomputation costs tens of microseconds, so small
// sets would lose more to goroutine startup than they win.
const repairParallelMin = 16

// recomputed is one node's phase-1 output: everything derivable from the
// read-only session state, computed (possibly concurrently) before the
// serial phase 2 applies it.
type recomputed struct {
	nr     core.NodeResult
	rec    *core.Reconfigurator
	pruned []core.Discovery
}

// recompute rebuilds the exact minimal-power state of every listed node
// over the current live placement and resets its §4 state machine. It
// returns the ids actually recomputed (duplicates removed, in input
// order) and invalidates the snapshot cache.
//
// The rebuild runs in two phases. Phase 1 computes each node's new
// state — the RunNode cone test, its §4 state machine, and the pruned
// neighbor list — against read-only session state, fanned across the
// engine's worker pool when the recompute set is large (a drift tick
// of dozens of moves reaches hundreds of beacons). Phase 2 serially
// installs the results and patches the recomputed nodes' arcs into the
// incrementally-maintained topology graphs.
func (s *Session) recompute(ids []int) []int {
	s.newMarkEpoch()
	out := make([]int, 0, len(ids))
	live := make([]int, 0, len(ids))
	for _, u := range ids {
		if s.marked(u) {
			continue
		}
		out = append(out, u)
		if s.alive[u] {
			live = append(live, u)
		}
	}

	workers := 1
	if len(live) >= repairParallelMin && s.workers != 1 {
		workers = core.ResolveWorkers(s.workers, len(live)*parallelGrain)
	}
	results := make([]recomputed, len(live))
	runners := make([]core.NodeRunner, workers)
	// ctx is inert: repairs are short, lock-held critical sections with
	// no caller-supplied context to honor.
	_ = core.ParallelRange(context.Background(), len(live), workers, func(w, i int) {
		u := live[i]
		nr := runners[w].RunNode(s.pos, s.alive, s.eng.prop, s.eng.cfg.Alpha, u, s.idx)
		if s.eng.schedule != nil {
			nr.Neighbors = core.QuantizeNeighbors(nr.Neighbors, s.eng.schedule)
		}
		rc := recomputed{
			nr:  nr,
			rec: core.NewReconfigurator(s.eng.cfg.Alpha, s.eng.model, nr.Neighbors),
		}
		if s.incremental {
			rc.pruned = s.eng.pruneNeighbors(nr.Neighbors, &runners[w])
		}
		results[i] = rc
	})

	for i, u := range live {
		s.nodes[u] = results[i].nr
		s.recs[u] = results[i].rec
		if s.incremental {
			s.patchArcs(u, results[i].pruned)
		}
	}
	for _, u := range out {
		if s.alive[u] {
			continue
		}
		s.nodes[u] = core.NodeResult{}
		s.recs[u] = nil
		if s.incremental {
			s.patchArcs(u, nil)
		}
	}
	if s.incremental {
		s.applyObserveDelta(live)
	}
	s.cached = nil
	return out
}

// applyObserveDelta folds one finished repair into the O(changed)
// Observe state: the pending departures and the exact edge diff the arc
// patches recorded go into the maintained component structure, and the
// per-node radius cache is refreshed for exactly the nodes whose radius
// can have changed — the recomputed live nodes, the live endpoints of
// diffed edges (an edge patch can touch a neighbor outside the
// recompute set through the symmetric closure), and the live neighbors
// of moved nodes. The last covers an unchanged closure edge {u,w} kept
// by w's own arc w→u: w moved out of reach of u's beacon, so u was not
// recomputed and the edge shows no diff, yet u's radius reads pos[w].
func (s *Session) applyObserveDelta(recomputed []int) {
	s.comps.Apply(s.g, graph.Delta{
		Departed: s.pendDepart,
		Added:    s.pendAdd,
		Removed:  s.pendRemove,
	})
	s.newMarkEpoch()
	for _, u := range recomputed {
		s.marked(u)
		s.radius[u] = graph.NodeRadius(s.g, s.pos, u)
	}
	refresh := func(u int) {
		if s.alive[u] && !s.marked(u) {
			s.radius[u] = graph.NodeRadius(s.g, s.pos, u)
		}
	}
	for _, e := range s.pendAdd {
		refresh(e.U)
		refresh(e.V)
	}
	for _, e := range s.pendRemove {
		refresh(e.U)
		refresh(e.V)
	}
	for _, w := range s.pendMoved {
		for _, v := range s.g.Row(w) {
			refresh(int(v))
		}
	}
	for _, u := range s.pendDepart {
		s.radius[u] = 0
	}
	s.pendDepart = s.pendDepart[:0]
	s.pendMoved = s.pendMoved[:0]
	s.pendAdd = s.pendAdd[:0]
	s.pendRemove = s.pendRemove[:0]
}

// parallelGrain scales a repair's item count when resolving workers: one
// RunNode is orders of magnitude more work than one index of the
// oracle's node range, so ResolveWorkers' stay-serial floor (tuned for
// the latter) would otherwise keep mid-sized repairs on one core.
const parallelGrain = 64

// patchArcs replaces node u's outgoing arcs in the maintained N_α with
// the new pruned neighbor set and patches the symmetric graph edge by
// edge. Processing every recomputed node once, in any order, leaves both
// graphs exactly as a from-scratch rebuild over the new state would.
func (s *Session) patchArcs(u int, pruned []core.Discovery) {
	mutual := s.eng.opts.AsymmetricRemoval
	next := make(map[int]bool, len(pruned))
	for _, nb := range pruned {
		next[nb.ID] = true
	}
	for _, nb := range s.pruned[u] {
		v := nb.ID
		if next[v] {
			continue
		}
		s.nalpha.RemoveArc(u, v)
		// A closure edge survives the arc removal iff the reverse arc
		// remains; a mutual edge never does.
		if mutual || !s.nalpha.HasArc(v, u) {
			if s.g.RemoveEdge(u, v) {
				s.pendRemove = append(s.pendRemove, graph.NewEdge(u, v))
			}
		}
	}
	for _, nb := range pruned {
		v := nb.ID
		if s.nalpha.HasArc(u, v) {
			continue
		}
		s.nalpha.AddArc(u, v)
		if !mutual || s.nalpha.HasArc(v, u) {
			if s.g.AddEdge(u, v) {
				s.pendAdd = append(s.pendAdd, graph.NewEdge(u, v))
			}
		}
	}
	s.pruned[u] = pruned
}

// newMarkEpoch starts a fresh membership set over the session's current
// id space; marked admits each id into it exactly once.
func (s *Session) newMarkEpoch() {
	s.markGen++
	if len(s.mark) < len(s.pos) {
		s.mark = append(s.mark, make([]int, len(s.pos)-len(s.mark))...)
	}
}

// marked reports whether u is already in the current epoch's set, adding
// it if not.
func (s *Session) marked(u int) bool {
	if s.mark[u] == s.markGen {
		return true
	}
	s.mark[u] = s.markGen
	return false
}

// union merges two id lists preserving first-occurrence order, deduping
// through the session's mark stamps instead of a per-call map.
func (s *Session) union(a, b []int) []int {
	s.newMarkEpoch()
	out := make([]int, 0, len(a)+len(b))
	for _, lst := range [2][]int{a, b} {
		for _, v := range lst {
			if !s.marked(v) {
				out = append(out, v)
			}
		}
	}
	return out
}
