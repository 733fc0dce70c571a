package cbtc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
// identical at every worker count. Every optimization stack is
// maintained this way, pairwise edge removal (§3.3) included: the
// redundancy of an edge (Definition 3.5) reads only the edges at its
// endpoints and their neighbors' positions, so a repair re-decides only
// the edges at nodes within two hops of an edited or moved node.
//
// A repair reads the state the session maintains instead of rebuilding
// it. Between batches a node's §4 state machine is a pure function of
// its installed neighbor row, so the session stores none: a batch
// builds a machine from the row when an event first touches a neighbor
// in it. That neighbor's site lies within the observer's beacon, so the
// same batch recomputes the observer, and the machine is dropped with
// the batch. The machines read only the installed rows and a log of
// the batch's events, so a large batch runs them on their own goroutine
// while the structural pass moves on. A recompute takes its candidates
// from the node's row of the maintained G_R, which holds exactly its
// live maximum-power neighbors.
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
	idx    *spatial.Grid // live nodes only; maintained across events
	stats  SessionStats
	cached *Result

	// Maintained topology. Repairs patch exactly the recomputed nodes'
	// arcs; Snapshot then takes copy-on-write clones of these graphs —
	// O(live nodes) slice-header copies — instead of rebuilding the
	// topology and ground-truth G_R from scratch, and later repairs copy
	// only the rows they actually touch.
	pruned [][]core.Discovery // per-node neighbor lists after op1/degree pruning
	nalpha *graph.Digraph     // pruned directed relation N_α
	gpre   *graph.Graph       // its symmetrization per the optimization stack
	// g is the topology: gpre after pairwise edge removal, which the
	// pairwise kernel keeps in step with gpre. Without op3 pairwise is
	// nil and g is gpre itself, as in core.BuildTopology.
	g        *graph.Graph
	pairwise *core.Pairwise
	gr       *graph.Graph // G_R over live nodes; departed nodes isolated

	// gInGR records that g ⊆ G_R: every installed arc u→v joins two
	// nodes adjacent in G_R. preservedLocked relies on it to read the
	// maintained components instead of labelling both graphs. An oracle
	// build has it by construction: its rows come from the same gather as
	// its G_R. buildTopology checks it where it gathers G_R itself
	// (restores and protocol builds). Repairs keep it. A join only adds
	// G_R edges, and G_R loses edge {u,v} only when u or v moves or
	// leaves. That node recomputes from its new G_R row, or drops its
	// arcs as it leaves. A node with an arc to it discovered it at or
	// below its GrowPower, at the site the event vacates, so
	// appendReached recomputes that node too, from its new row. (A
	// restored row's GrowPower is trusted here as every repair trusts
	// it.) Once false, the flag stays false until the next build.
	gInGR bool

	// live is the maintained live-node count, so LiveCount and Observe
	// never rescan the liveness vector.
	live int

	// O(changed) Observe state, maintained on every stack:
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
	// per-event dedup passes (a move's two observer lists, recompute id
	// sets, arc patches): node u is in the current set iff
	// mark[u] == markGen.
	mark    []int
	markGen int

	// The current batch's §4 machines, built from pool: machines[i]
	// belongs to node machineIDs[i], and machineOf[u] is 1 + that index,
	// or 0 for a node the batch has not built one for. The next batch
	// returns them to the pool.
	pool       core.MachinePool
	machines   []*core.Reconfigurator
	machineIDs []int
	machineOf  []int32

	// Buffers reused across batches: the observers of one event's old
	// and new site, the batch's log of heard events and its classifier,
	// its affected ids, its live recompute set and their results, one
	// runner per repair worker, and the moved node's G_R row.
	atOld, atNew         observers
	heard                []heardEvent
	cls                  classifier
	affected, recompLive []int
	results              []recomputed
	runners              []core.NodeRunner
	grRow                []int32

	// Battery state, allocated only for engines built WithBattery (on any
	// optimization stack). battery[u] is node u's residual
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
// their shards' sessions to the shard plan's inner budget. The build is
// one pass: the session's grid is built once and handed to the oracle,
// whose gather also yields G_R, and the session keeps both.
func (e *Engine) newSession(ctx context.Context, nodes []Point, workers int) (*Session, error) {
	idx := spatial.New(nodes, e.prop.MaxLinkRadius())
	exec, gr, err := core.RunWithMaxPowerGraph(ctx, nodes, e.prop, e.cfg.Alpha, workers, idx)
	if err != nil {
		return nil, err
	}
	if e.schedule != nil {
		exec = core.QuantizeTags(exec, e.schedule)
	}
	return e.sessionFromExec(ctx, nodes, exec, idx, gr, workers)
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
// exactly that discreteness for oracle tags — is not reapplied. The
// session adopts the simulator's delivery grid as its index; the
// protocol run yields no G_R, so buildTopology gathers it over that grid.
func (e *Engine) newProtocolSession(ctx context.Context, nodes []Point, sim SimOptions, workers int) (*Session, error) {
	exec, grid, err := e.protoExec(ctx, nodes, sim)
	if err != nil {
		return nil, err
	}
	return e.sessionFromExec(ctx, nodes, exec, grid, nil, workers)
}

// sessionFromExec builds the live session state around a completed
// growing-phase execution — the shared back half of the oracle and
// protocol constructors. idx must index exactly nodes at cell size
// MaxLinkRadius, and the session takes it over. gr is G_R over nodes
// when the caller has it (the oracle's by-product), or nil for
// buildTopology to gather.
func (e *Engine) sessionFromExec(ctx context.Context, nodes []Point, exec *core.Execution, idx *spatial.Grid, gr *graph.Graph, workers int) (*Session, error) {
	s := &Session{
		eng:     e,
		workers: workers,
		pos:     append([]Point(nil), nodes...),
		alive:   make([]bool, len(nodes)),
		nodes:   exec.Nodes,
		idx:     idx,
		gr:      gr,
		live:    len(nodes),
	}
	if e.battery {
		s.battery = make([]float64, len(nodes))
		for i := range s.battery {
			s.battery[i] = e.batteryCap
		}
	}
	for i := range nodes {
		s.alive[i] = true
	}
	if err := s.buildTopology(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// buildTopology derives the maintained topology from the installed
// growing-phase rows, positions and liveness: the pruned rows, N_α, its
// symmetrization gpre, the pairwise-pruned g with its kernel, the
// ground-truth G_R with departed nodes isolated, and the Observe state.
// The constructors and checkpoint restore share it. G_R is gathered over
// the session grid only when s.gr is unset: on restore and for
// protocol-built sessions; the oracle constructor installs its own.
func (s *Session) buildTopology(ctx context.Context) error {
	e := s.eng
	n := len(s.pos)
	workers := core.ResolveWorkers(s.workers, n)
	runners := make([]core.NodeRunner, workers)
	s.pruned = make([][]core.Discovery, n)
	// Shrink-back writes every pruned row into one arena, in a region
	// the size of the node's row, where a row-by-row prune would allocate
	// a copy per node; without it the pruned rows are the node rows.
	var arena []core.Discovery
	var offs []int
	if e.opts.ShrinkBack {
		offs = make([]int, n+1)
		for u := range s.nodes {
			offs[u+1] = offs[u] + len(s.nodes[u].Neighbors)
		}
		arena = make([]core.Discovery, offs[n])
	}
	// The per-node prune (coverage arithmetic when shrink-back is on) is
	// embarrassingly parallel, like the oracle itself.
	if err := core.ParallelRange(ctx, n, workers, func(w, u int) {
		var dst []core.Discovery
		if arena != nil {
			dst = arena[offs[u]:offs[u+1]:offs[u+1]]
		}
		s.pruned[u] = e.pruneNeighbors(dst, s.nodes[u].Neighbors, &runners[w])
	}); err != nil {
		return err
	}
	s.nalpha = core.NalphaOf(n, func(u int) []core.Discovery { return s.pruned[u] })
	if e.opts.AsymmetricRemoval {
		s.gpre = s.nalpha.MutualSubgraph()
	} else {
		s.gpre = s.nalpha.SymmetricClosure()
	}
	s.g = s.gpre
	if e.opts.PairwiseRemoval {
		s.pairwise, s.g, _ = core.NewPairwise(s.gpre, s.pos, e.opts.PairwisePolicy)
	}
	s.gInGR = true
	if s.gr == nil {
		// Gather over the session's own grid — it indexes exactly the
		// live nodes.
		s.gr = core.MaxPowerGraphParallelIndexed(s.pos, e.prop, s.idx, s.workers)
		for u, alive := range s.alive {
			if !alive {
				s.gr.IsolateNode(u)
			}
		}
		// Rows a protocol run or a checkpoint installed may name a node
		// outside G_R (validateNodeRows accepts it), so check every arc.
		s.gInGR = s.arcsInGR()
	}
	// The O(changed) Observe state: the live component structure and the
	// per-node radius cache over g.
	s.comps = graph.NewLiveComponents(s.g, s.alive)
	// The repair's per-node scratch, its membership stamps and the
	// batch's machine index, is sized here with the other per-node
	// tables rather than by the first batch.
	s.mark = make([]int, n)
	s.machineOf = make([]int32, n)
	s.radius = make([]float64, n)
	return core.ParallelRange(ctx, n, workers, func(_, u int) {
		s.radius[u] = graph.NodeRadius(s.g, s.pos, u)
	})
}

// arcsInGR reports whether every arc of the pruned rows joins two nodes
// adjacent in G_R, which makes g, a subgraph of their symmetric
// closure, a subgraph of G_R.
func (s *Session) arcsInGR() bool {
	for u, row := range s.pruned {
		for _, nb := range row {
			if !s.gr.HasEdge(u, nb.ID) {
				return false
			}
		}
	}
	return true
}

// pruneNeighbors applies the engine's per-node-local optimization,
// shrink-back (op1), on the worker's runner scratch, writing the shrunk
// row into dst's backing array when it has room (nil allocates one).
// Pairwise removal acts on edges, not rows, and never goes through here.
func (e *Engine) pruneNeighbors(dst, nbrs []core.Discovery, r *core.NodeRunner) []core.Discovery {
	if e.opts.ShrinkBack {
		nbrs = r.ShrinkNeighborsInto(dst, nbrs, e.cfg.Alpha)
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
// node id, inserts p into every maintained structure, gathers the
// site's observers into o, and links the newcomer into the incremental
// ground-truth G_R.
func (s *Session) admit(p Point, o *observers) int {
	id := len(s.pos)
	s.pos = append(s.pos, p)
	s.alive = append(s.alive, true)
	s.nodes = append(s.nodes, core.NodeResult{})
	s.idx.Add(id, p)
	s.live++
	s.pruned = append(s.pruned, nil)
	s.nalpha.Grow(1)
	s.gpre.Grow(1)
	if s.pairwise != nil {
		s.g.Grow(1)
	}
	s.gr.Grow(1)
	s.withinRange(o, id, p)
	s.gr.SetRow(id, s.maxPowerRow(id, o))
	// The newcomer starts as a singleton component with radius 0; the
	// recompute's edge patches union and refresh it.
	s.comps.Join(id)
	s.radius = append(s.radius, 0)
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
	s.gr.IsolateNode(id)
	// The topology-edge removals themselves are recorded by patchArcs
	// during the recompute; the departure is folded into the component
	// structure alongside them.
	s.pendDepart = append(s.pendDepart, id)
	s.stats.Leaves++
}

// relocate performs the structural half of a move, gathers the
// observers of the new site into o, and returns the old position. The
// moved node's G_R row is replaced by a diff: most of its edges survive
// a short move.
func (s *Session) relocate(id int, p Point, o *observers) Point {
	old := s.pos[id]
	s.pos[id] = p
	s.idx.Move(id, p)
	s.withinRange(o, id, p)
	s.gr.SetRow(id, s.maxPowerRow(id, o))
	s.pendMoved = append(s.pendMoved, id)
	s.stats.Moves++
	return old
}

// heardEvent is one leave or move of a batch as its observers' §4
// state machines see it: the event node, a move's new site, and every
// observer of the event's sites.
type heardEvent struct {
	id  int
	p   Point
	obs []hearer
}

// hearer is one observer of a heard event: its position at the event,
// and whether it still reaches a moved node there. Every observer of a
// leave has lost the node.
type hearer struct {
	u       int
	pos     Point
	reaches bool
}

// hearLeave logs a leave of id into h for the observers in atOld.
func (s *Session) hearLeave(h *heardEvent, id int) {
	h.id = id
	h.obs = h.obs[:0]
	for _, u := range s.atOld.ids {
		h.obs = append(h.obs, hearer{u: u})
	}
}

// hearMove logs a move of id to p into h for the observers of either
// site. An observer of the old site only is out of the new one's range,
// so it no longer reaches id. On pure models reaching is the
// slack-widened distance test that gathered atNew; link models re-check
// the exact per-link range predicate.
func (s *Session) hearMove(h *heardEvent, id int, p Point) {
	prop := s.eng.prop
	pure := prop.DistancePure()
	h.id, h.p = id, p
	h.obs = h.obs[:0]
	s.newMarkEpoch()
	for i, u := range s.atNew.ids {
		s.marked(u)
		h.obs = append(h.obs, hearer{u, s.pos[u], pure || prop.LinkInRange(u, id, s.atNew.dist[i])})
	}
	for _, u := range s.atOld.ids {
		if !s.marked(u) {
			h.obs = append(h.obs, hearer{u: u, pos: s.pos[u]})
		}
	}
}

// classify runs one heard event through the §4 state machine of each
// observer whose neighbor table holds the event node, accumulating the
// regrow/repair counts into rep: an aChangeᵤ where the observer still
// reaches a moved node, a leaveᵤ where it does not. An observer whose
// table does not hold the node never knew it, or dropped it earlier in
// the batch; a moved node it reaches is a joinᵤ for it. rows are the
// node rows installed when the batch began.
func (s *Session) classify(rows []core.NodeResult, h *heardEvent, rep *EventReport) {
	for i := range h.obs {
		o := &h.obs[i]
		rc := s.table(rows, o.u, h.id)
		var act core.Action
		switch {
		case rc != nil && o.reaches:
			rep.AngleChanges++
			act = rc.AngleChange(h.id, o.pos.Bearing(h.p))
		case rc != nil:
			act = rc.Leave(h.id)
		case o.reaches:
			// A joinᵤ observation: always an in-place repair (§4).
			rep.Repairs++
			continue
		default:
			continue
		}
		if act == core.ActionRegrow {
			rep.Regrows++
		} else {
			rep.Repairs++
		}
	}
}

// table returns observer u's §4 state machine if its neighbor table
// holds id, and nil otherwise. The table is the batch's machine for u
// once one exists; before that it is u's row in rows, and the machine
// is built from that row, into the session's pool, the first time an
// event touches a neighbor in it. A node admitted during the batch is
// past the end of rows: its row is still empty.
func (s *Session) table(rows []core.NodeResult, u, id int) *core.Reconfigurator {
	if u >= len(rows) {
		return nil
	}
	if k := s.machineOf[u]; k != 0 {
		if rc := s.machines[k-1]; rc.Has(id) {
			return rc
		}
		return nil
	}
	row := rows[u].Neighbors
	if !slices.ContainsFunc(row, func(d core.Discovery) bool { return d.ID == id }) {
		return nil
	}
	rc := s.pool.Get(s.eng.cfg.Alpha, s.eng.model, row)
	s.machines = append(s.machines, rc)
	s.machineIDs = append(s.machineIDs, u)
	s.machineOf[u] = int32(len(s.machines))
	return rc
}

// resetMachines returns the previous batch's machines to the pool and
// sizes the machine index for the current node rows.
func (s *Session) resetMachines() {
	for _, u := range s.machineIDs {
		s.machineOf[u] = 0
	}
	s.machineIDs = s.machineIDs[:0]
	s.machines = s.machines[:0]
	s.pool.Release()
	if len(s.machineOf) < len(s.nodes) {
		s.machineOf = append(s.machineOf, make([]int32, len(s.nodes)-len(s.machineOf))...)
	}
}

// classifyPipelineMin is the batch size from which the §4
// classification runs on its own goroutine, alongside the structural
// pass, when the session may use more than one core: each event's
// structural work costs about as much as its classification, so a
// batch of dozens of events finishes in little more than the time of
// its structural pass, while a handful would lose more to the handoff
// than they win.
const classifyPipelineMin = 8

// classifier runs a batch's heard events through the observers' §4
// state machines in event order: inline, or on a goroutine that
// follows the structural pass event by event. The goroutine owns the
// machines, the pool and the machine index until wait returns, and
// reads no state the structural pass writes: rows was installed before
// the batch, and every position it needs is in the log.
type classifier struct {
	s    *Session
	rows []core.NodeResult
	feed chan *heardEvent
	done chan struct{}
	rep  EventReport
}

// start begins the classification of a batch of n events.
func (c *classifier) start(s *Session, n int) {
	*c = classifier{s: s, rows: s.nodes}
	if n >= classifyPipelineMin && s.workers != 1 && runtime.GOMAXPROCS(0) > 1 {
		c.feed = make(chan *heardEvent, n)
		c.done = make(chan struct{})
		go c.run()
	}
}

// run is the classification goroutine.
func (c *classifier) run() {
	for h := range c.feed {
		c.s.classify(c.rows, h, &c.rep)
	}
	close(c.done)
}

// hear classifies h, or hands it to the goroutine; h must not change
// before wait returns.
func (c *classifier) hear(h *heardEvent) {
	if c.feed != nil {
		c.feed <- h
		return
	}
	c.s.classify(c.rows, h, &c.rep)
}

// wait returns the batch's classification counts once every heard
// event is classified.
func (c *classifier) wait() EventReport {
	if c.feed != nil {
		close(c.feed)
		<-c.done
	}
	rep := c.rep
	*c = classifier{}
	return rep
}

// applyStats folds one event report's classification counts into the
// session totals.
func (s *Session) applyStats(rep *EventReport) {
	s.stats.AngleChanges += rep.AngleChanges
	s.stats.Regrows += rep.Regrows
	s.stats.Repairs += rep.Repairs
}

// maxPowerRow returns node id's row of the maintained ground-truth G_R
// at its current position, in the session's reused buffer: every live
// node within maximum-power range, under exactly MaxPowerGraph's link
// rule. o holds the observers of that position, a superset of the row
// (see rangeSlack), so patching these rows in keeps the incremental
// graph equal to a fresh MaxPowerGraph with departed nodes isolated.
func (s *Session) maxPowerRow(id int, o *observers) []int32 {
	s.grRow = core.AppendMaxPowerRow(s.grRow[:0], s.eng.prop, id, o.ids, o.dist)
	return s.grRow
}

// Snapshot returns the live topology as a Result — the same artifact
// Engine.Run produces, over the session's current placement. Departed
// nodes appear isolated, in both the topology and its ground-truth
// G_R, so Result.PreservesConnectivity keeps its meaning. Snapshots are
// cached between events.
//
// The snapshot is assembled from the maintained graphs — repairs only
// ever rebuilt the recomputed nodes' arcs and re-decided pairwise
// removal around them — and costs copy-on-write clones instead of a
// topology and G_R rebuild. The error is always nil.
func (s *Session) Snapshot() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(), nil
}

// snapshotLocked is Snapshot with the session lock already held.
func (s *Session) snapshotLocked() *Result {
	if s.cached != nil {
		return s.cached
	}
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
	gpre := g // the same graph when pairwise removal is off, as in BuildTopology
	if s.pairwise != nil {
		gpre = s.gpre.Clone()
	}
	topo := &core.Topology{
		Exec:   exec,
		Nalpha: s.nalpha.Clone(),
		G:      g,
		Gpre:   gpre,
		Opts:   s.eng.opts,
	}
	// The radius cache already holds NodeRadius(g, pos, u) for every slot
	// (0 for departed nodes), so the snapshot folds it instead of
	// re-deriving the radius/degree tables from scratch — the assembled
	// Result is bitwise identical either way.
	s.cached = newResultFromRadii(s.pos, s.eng.model, topo, s.gr.Clone(), append([]float64(nil), s.radius...))
	return s.cached
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

// Observe computes the session's current TickStats in O(changed):
// repairs maintain the component structure, the live/edge counters and
// the per-node radius cache, so observing costs the maintained counters
// plus one flat summation over the cached values — no BFS, no radius
// recomputation, no Result assembly. The error is always nil.
func (s *Session) Observe() (TickStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observeLocked(), nil
}

func (s *Session) observeLocked() TickStats {
	ts := TickStats{Live: s.live, Edges: s.g.EdgeCount(), Components: s.comps.Count()}
	// The radius and energy sums fold the cached per-node values in
	// ascending order, as a full rescan of the graph would, so the
	// maintained stats are bitwise identical to a rescan's — not just
	// close — and stay so across checkpoint/restore.
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
	return ts
}

// report reads a fleet member report's live state under one acquisition
// of the session lock: the Observe stats, the §4 counters, the degree
// distribution of g over live nodes, and whether g induces G_R's
// partition (Theorem 2.1). Every field comes from maintained state. It
// builds no Snapshot, whose clones would make the next repair copy
// every row it writes.
func (s *Session) report() (final TickStats, st SessionStats, degrees stats.IntHist, preserved bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observeLocked(), s.stats, s.degreesLocked(), s.preservedLocked()
}

// degreesLocked returns the distribution of g's degrees over live nodes,
// its bins sized in one allocation.
func (s *Session) degreesLocked() stats.IntHist {
	top := -1
	for u, alive := range s.alive {
		if alive {
			top = max(top, s.g.Degree(u))
		}
	}
	var h stats.IntHist
	if top < 0 {
		return h
	}
	h.Counts = make([]int64, top+1)
	for u, alive := range s.alive {
		if alive {
			h.Counts[s.g.Degree(u)]++
		}
	}
	return h
}

// preservedLocked reports whether g and G_R induce the same partition,
// as Result.PreservesConnectivity does on a Snapshot. While g ⊆ G_R
// (gInGR) every g component lies inside one G_R component, so the two
// agree iff no G_R edge joins two g components. That holds at once when
// g's live nodes form one component; otherwise only the G_R rows of
// nodes outside g's largest component need a look, since such an edge
// has an endpoint outside it. Without the invariant both live graphs
// are labelled from scratch.
func (s *Session) preservedLocked() bool {
	if !s.gInGR {
		return graph.SamePartition(s.gr, s.g)
	}
	if s.comps.Count() <= 1 {
		return true
	}
	largest := s.comps.Largest()
	for u, alive := range s.alive {
		if !alive {
			continue
		}
		c := s.comps.Label(u)
		if c == largest {
			continue
		}
		for _, v := range s.gr.Row(u) {
			if s.comps.Label(int(v)) != c {
				return false
			}
		}
	}
	return true
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
// nodes — from the maintained per-node cache. The error is always nil.
// Like Position it panics on an id the session never allocated.
func (s *Session) NodeRadius(id int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("cbtc: session has no node %d (len %d)", id, len(s.pos)))
	}
	return s.radius[id], nil
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
// under-inclusion would let stale state survive. Because it exceeds
// that tolerance (1e-12), a site's observers also include every G_R
// neighbor a node at the site has, which is how maxPowerRow finds them.
const rangeSlack = 1e-9

// observers is one event site's observer list: the live nodes other
// than the event node within the observer radius, in the spatial
// index's order, and each one's distance to the site.
type observers struct {
	ids  []int
	dist []float64
}

// withinRange gathers into o the live nodes other than self within the
// propagation model's link-radius bound of p, reusing o's buffers. The
// spatial index — which holds exactly the live nodes — answers the
// radius query; the slightly widened query radius plus the exact
// distance re-check, filtered in place, reproduce the full-scan
// predicate. The bound is the observer radius: no link — even a
// favorably-shadowed one — can exceed it, so every node that could hear
// an event at p is included. The ids are not sorted: each use is
// order-free except appendReached, which sorts what it keeps.
func (s *Session) withinRange(o *observers, self int, p Point) {
	r := s.eng.prop.MaxLinkRadius() * (1 + rangeSlack)
	all := s.idx.AppendWithinUnordered(o.ids[:0], p, r*(1+spatial.QuerySlack))
	o.ids, o.dist = all[:0], o.dist[:0]
	for _, v := range all {
		if d := s.pos[v].Dist(p); v != self && d <= r {
			o.ids = append(o.ids, v)
			o.dist = append(o.dist, d)
		}
	}
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
//
// The reached observers are appended in ascending id order, which fixes
// the order of the batch's recompute set.
func (s *Session) appendReached(dst []int, id int, o *observers) []int {
	prop := s.eng.prop
	pure := prop.DistancePure()
	start := len(dst)
	for i, u := range o.ids {
		grow := s.nodes[u].GrowPower
		d := o.dist[i]
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
	slices.Sort(dst[start:])
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
	pruned []core.Discovery
}

// recompute rebuilds the exact minimal-power state of every listed node
// over the current live placement. It returns the ids actually
// recomputed (duplicates removed, in input order) and invalidates the
// snapshot cache. No §4 machine survives it: the next batch builds
// machines from the rows installed here.
//
// The rebuild runs in two phases. Phase 1 computes each node's new
// state — the growing phase over the node's G_R row, its tags quantized
// in place when the engine has a schedule, and the pruned neighbor list
// — against read-only session state, fanned across the engine's worker
// pool when the recompute set is large (a drift tick of dozens of moves
// reaches hundreds of beacons). An interior row that shrink-back would
// keep whole skips the coverage kernel (core.NodeRunner.ShrinkGrown)
// and is its own pruned row. Phase 2 serially installs the results and
// patches the recomputed nodes' arcs into the maintained topology
// graphs; with pairwise removal on, the kernel then re-decides the edges
// around the patched and moved nodes.
func (s *Session) recompute(ids []int) []int {
	s.newMarkEpoch()
	out := make([]int, 0, len(ids))
	live := s.recompLive[:0]
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
	if len(s.runners) < workers {
		s.runners = append(s.runners, make([]core.NodeRunner, workers-len(s.runners))...)
	}
	results := slices.Grow(s.results[:0], len(live))[:len(live)]
	prop, alpha := s.eng.prop, s.eng.cfg.Alpha
	// ctx is inert: repairs are short, lock-held critical sections with
	// no caller-supplied context to honor.
	_ = core.ParallelRange(context.Background(), len(live), workers, func(w, i int) {
		u, r := live[i], &s.runners[w]
		nr := r.RunNodeRow(s.pos, prop, alpha, u, s.gr.Row(u))
		if s.eng.schedule != nil {
			core.QuantizeNeighbors(nr.Neighbors, s.eng.schedule)
		}
		pruned := nr.Neighbors
		if s.eng.opts.ShrinkBack {
			pruned = r.ShrinkGrown(nr, alpha)
		}
		results[i] = recomputed{nr: nr, pruned: pruned}
	})

	for i, u := range live {
		s.nodes[u] = results[i].nr
		s.patchArcs(u, results[i].pruned)
	}
	for _, u := range out {
		if s.alive[u] {
			continue
		}
		s.nodes[u] = core.NodeResult{}
		s.patchArcs(u, nil)
	}
	added, removed := s.pendAdd, s.pendRemove
	if s.pairwise != nil {
		added, removed = s.repairPairwise()
	}
	s.applyObserveDelta(live, added, removed)
	s.cached = nil
	clear(results) // keep no replaced row reachable from the buffer
	s.results, s.recompLive = results[:0], live[:0]
	return out
}

// repairPairwise re-decides pairwise edge removal around one repair's
// edits of gpre and returns g's own edge diff. The changed set holds the
// endpoints of every gpre edge the arc patches added or removed, and
// every moved node, even one whose gpre row did not change: a small move
// can flip an angle across π/3, or an eid order, at the mover's
// neighbors.
func (s *Session) repairPairwise() (added, removed []graph.Edge) {
	changed := make([]int, 0, 2*(len(s.pendAdd)+len(s.pendRemove))+len(s.pendMoved))
	for _, edges := range [2][]graph.Edge{s.pendAdd, s.pendRemove} {
		for _, e := range edges {
			changed = append(changed, e.U, e.V)
		}
	}
	changed = append(changed, s.pendMoved...)
	return s.pairwise.Repair(s.gpre, s.g, s.pos, s.pendRemove, changed)
}

// applyObserveDelta folds one finished repair into the O(changed)
// Observe state: the pending departures and g's exact edge diff (added,
// removed) go into the maintained component structure, and the per-node
// radius cache is refreshed for exactly the nodes whose radius can have
// changed — the recomputed live nodes, the live endpoints of diffed
// edges (an edge patch can touch a neighbor outside the recompute set
// through the symmetric closure or a pairwise re-decision), and the live
// neighbors of moved nodes. The last covers an unchanged edge {u,w}
// kept by w's own arc w→u: w moved out of reach of u's beacon, so u was
// not recomputed and the edge shows no diff, yet u's radius reads pos[w].
func (s *Session) applyObserveDelta(recomputed []int, added, removed []graph.Edge) {
	s.comps.Apply(s.g, graph.Delta{
		Departed: s.pendDepart,
		Added:    added,
		Removed:  removed,
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
	for _, edges := range [2][]graph.Edge{added, removed} {
		for _, e := range edges {
			refresh(e.U)
			refresh(e.V)
		}
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
// the new pruned neighbor set and patches the symmetric graph gpre edge
// by edge, recording its diff in pendAdd/pendRemove. Processing every
// recomputed node once, in any order, leaves both graphs exactly as a
// from-scratch rebuild over the new state would. The new set is marked
// in the session's stamp array.
func (s *Session) patchArcs(u int, pruned []core.Discovery) {
	mutual := s.eng.opts.AsymmetricRemoval
	s.newMarkEpoch()
	for _, nb := range pruned {
		s.marked(nb.ID)
	}
	for _, nb := range s.pruned[u] {
		v := nb.ID
		if s.mark[v] == s.markGen {
			continue
		}
		s.nalpha.RemoveArc(u, v)
		// A closure edge survives the arc removal iff the reverse arc
		// remains; a mutual edge never does.
		if mutual || !s.nalpha.HasArc(v, u) {
			if s.gpre.RemoveEdge(u, v) {
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
			if s.gpre.AddEdge(u, v) {
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
