package cbtc

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

// MemberKind selects how a fleet member's initial topology is built.
type MemberKind uint8

const (
	// MemberOracle builds the member with the exact minimal-power oracle
	// (Engine.Run semantics) — the default.
	MemberOracle MemberKind = iota
	// MemberProtocol builds the member by actually running the paper's
	// distributed Figure 1 protocol on the discrete-event radio simulator
	// (Engine.Simulate semantics, seeded and deterministic). Subsequent §4
	// repairs use the same oracle machinery as every other member.
	MemberProtocol
)

func (k MemberKind) String() string {
	switch k {
	case MemberOracle:
		return "oracle"
	case MemberProtocol:
		return "protocol"
	default:
		return fmt.Sprintf("MemberKind(%d)", uint8(k))
	}
}

// MemberHealth is a fleet member's failure-domain state.
type MemberHealth uint8

const (
	// MemberHealthy means the member ticks normally.
	MemberHealthy MemberHealth = iota
	// MemberQuarantined means a tick of the member panicked: its clock is
	// frozen, the scheduler never leases it, event batches targeting it
	// are refused, and reports stop reading its session (which may be
	// mid-mutation). The panic and stack are retained in a
	// QuarantineRecord; Fleet.Readmit restores the member from a
	// checkpoint. Healthy members are unaffected — their results remain
	// byte-identical to a fleet where the casualty never panicked.
	MemberQuarantined
)

func (h MemberHealth) String() string {
	switch h {
	case MemberHealthy:
		return "healthy"
	case MemberQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("MemberHealth(%d)", uint8(h))
	}
}

// QuarantineRecord describes one member's quarantine: where its tick
// panicked and with what.
type QuarantineRecord struct {
	// Net is the member's index in the fleet.
	Net int
	// Tick is the member tick that panicked (the tick was not completed —
	// the member's clock stops just below it).
	Tick int
	// Err is the panic value, stringified.
	Err string
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// QuarantineError reports the members a fleet operation quarantined.
// It is returned — alongside whatever work completed on the healthy
// members — instead of poisoning the fleet: after a QuarantineError the
// fleet remains fully usable for every healthy member. Classify with
// errors.As; inspect the full health state with Fleet.Health.
type QuarantineError struct {
	// Casualties lists the members quarantined by this operation, in
	// fleet order.
	Casualties []QuarantineRecord
}

func (e *QuarantineError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cbtc: %d fleet member(s) quarantined:", len(e.Casualties))
	for _, c := range e.Casualties {
		fmt.Fprintf(&b, " [net %d tick %d: %s]", c.Net, c.Tick, c.Err)
	}
	return b.String()
}

// TickHook is an instrumentation hook invoked immediately before every
// member tick, on the scheduler worker driving the member, with the
// member index and the tick number about to run. It exists for fault
// injection and observation in tests and simulators (internal/chaos's
// Injector.Tick is a TickHook): a panic inside the hook is handled
// exactly like a panicking member tick — the member is quarantined —
// and a sleep delays only that member. To keep fleet results
// deterministic a hook must decide faults from its arguments alone,
// never from wall clock or shared mutable state.
type TickHook func(net, tick int)

// ObserveHook is an observation hook invoked immediately after every
// completed member tick, on the scheduler worker driving the member,
// with the member index, the tick number that just ran, and the
// TickStats the tick observed. Since Observe is O(changed), a per-tick
// hook costs the fleet essentially nothing — it is how drivers watch
// per-tick SLO-style conditions (cmd/fleetsim's -slo connected gate
// records the first tick a member partitions) without polling sessions.
// Calls for one member arrive in tick order; calls for different
// members arrive concurrently from different workers, so a hook must
// either use per-member state or synchronize. Like TickHook, a panic
// inside the hook quarantines the member.
type ObserveHook func(net, tick int, ts TickStats)

// MemberSpec describes one fleet member: its initial placement, how it
// is built, the engine options it overrides, and its tick budget. The
// zero value of everything but Placement gives the PR 5 behavior — an
// oracle member on the fleet engine's stack advancing one tick per
// round.
type MemberSpec struct {
	// Placement is the member's initial node placement.
	Placement []Point
	// Kind selects the oracle or the distributed-protocol constructor.
	Kind MemberKind
	// Options are per-member engine overrides, layered over the fleet
	// engine's configuration and revalidated as a whole — a member can run
	// its own α, optimization stack or density regime while the fleet
	// aggregates across all of them.
	Options []Option
	// Ticks is the member's tick budget per fleet round: Run(ctx, rounds,
	// fn) advances the member rounds×Ticks ticks. Zero means 1. A light
	// member can tick many times per round of a heavyweight one — the
	// heterogeneity the synchronized PR 5 barrier could not express.
	Ticks int
	// Sim configures the protocol constructor for MemberProtocol members.
	// A zero Sim.Seed derives a per-member seed from FleetConfig.Seed, so
	// a fleet remains reproducible from one seed; set it explicitly to
	// reproduce the member standalone with NewProtocolSession.
	Sim SimOptions
}

// FleetConfig configures Engine.NewFleet.
type FleetConfig struct {
	// Members are the fleet's M member specifications; member i starts
	// from Members[i]. At least one member is required.
	Members []MemberSpec
	// Seed derives every member's private tick RNG (a decorrelated
	// splitmix stream per member) and, for protocol members without an
	// explicit Sim.Seed, the protocol simulator seed — so a fleet is
	// reproducible from its member specs and one seed, at any worker
	// count.
	Seed uint64
	// Workers sizes the fleet's scheduler pool. Zero means the engine's
	// worker budget (WithWorkers; GOMAXPROCS by default); one drives the
	// fleet serially.
	Workers int
	// TickHook, when non-nil, is invoked before every member tick — the
	// fault-injection/instrumentation point. See TickHook.
	TickHook TickHook
	// ObserveHook, when non-nil, is invoked after every member tick with
	// the tick's observed stats — the per-tick SLO/telemetry point. See
	// ObserveHook.
	ObserveHook ObserveHook
}

// members validates the member specs and returns a copy with the default
// tick budget filled in.
func (cfg *FleetConfig) members() ([]MemberSpec, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("%w: fleet needs at least one member", ErrBadConfig)
	}
	out := append([]MemberSpec(nil), cfg.Members...)
	for i := range out {
		if out[i].Kind > MemberProtocol {
			return nil, fmt.Errorf("%w: member %d: unknown kind %d", ErrBadConfig, i, out[i].Kind)
		}
		if out[i].Ticks < 0 {
			return nil, fmt.Errorf("%w: member %d: negative tick budget %d", ErrBadConfig, i, out[i].Ticks)
		}
		if out[i].Ticks == 0 {
			out[i].Ticks = 1
		}
	}
	return out, nil
}

// TickFunc generates member net's events for the member's tick number
// tick. It must derive randomness only from rng — the member's private
// deterministic stream — and from the session's own observable state;
// under that contract each member's results are byte-identical given its
// seed at every worker count, and identical to driving the session
// alone. DriftTick builds the standard mobility/membership profile.
type TickFunc func(net, tick int, rng *rand.Rand, s *Session) []Event

// TickProfile parameterizes DriftTick, the standard
// mobility/membership tick. internal/workload's FleetScenario carries
// matching field values for its generated placements.
type TickProfile struct {
	// Moves is the number of random live nodes jittered per tick.
	Moves int
	// Jitter is the uniform per-coordinate drift amplitude (±Jitter).
	Jitter float64
	// JoinProb and LeaveProb are the per-tick probabilities of one node
	// joining at a uniform position / one random live node leaving.
	JoinProb, LeaveProb float64
	// Width and Height bound the region: joins draw from it and moved
	// nodes are clamped to it.
	Width, Height float64
}

// DriftTick returns the standard TickFunc: each tick jitters
// p.Moves random live nodes by up to ±p.Jitter per coordinate (clamped
// to the region), then joins a fresh uniform node with probability
// p.JoinProb, then removes a random live node with probability
// p.LeaveProb. Event order (moves, join, leave) is fixed so the RNG
// consumption — and with it each member's whole history — is
// deterministic.
func DriftTick(p TickProfile) TickFunc {
	return func(_, _ int, rng *rand.Rand, s *Session) []Event {
		events := make([]Event, 0, p.Moves+2)
		for k := 0; k < p.Moves; k++ {
			id := randomLive(rng, s)
			if id < 0 {
				break
			}
			q := s.Position(id)
			q.X = clampTo(q.X+(rng.Float64()*2-1)*p.Jitter, p.Width)
			q.Y = clampTo(q.Y+(rng.Float64()*2-1)*p.Jitter, p.Height)
			events = append(events, MoveEvent(id, q))
		}
		if p.JoinProb > 0 && rng.Float64() < p.JoinProb {
			events = append(events, JoinEvent(Pt(rng.Float64()*p.Width, rng.Float64()*p.Height)))
		}
		// The leave comes last so it can never invalidate an earlier
		// event of the same batch targeting the departing node.
		if p.LeaveProb > 0 && rng.Float64() < p.LeaveProb {
			if id := randomLive(rng, s); id >= 0 {
				events = append(events, LeaveEvent(id))
			}
		}
		return events
	}
}

// LifetimeTick returns the network-lifetime TickFunc: DriftTick's
// mobility/membership profile, followed by one LeaveEvent per live node
// whose battery has emptied (Session.Depleted). Deaths come after the
// drift events so they can never invalidate an earlier event of the
// same batch, and a node the drift already removes this tick is not
// Leave'd twice. Depletion is read from the session's observable state
// and consumes no randomness, so the contract of TickFunc — member
// histories byte-identical given the seed at any worker count — holds;
// on engines without a battery model LifetimeTick degenerates to
// DriftTick exactly.
func LifetimeTick(p TickProfile) TickFunc {
	drift := DriftTick(p)
	return func(net, tick int, rng *rand.Rand, s *Session) []Event {
		events := drift(net, tick, rng, s)
		dead := s.Depleted()
		if len(dead) == 0 {
			return events
		}
		leaving := -1 // DriftTick emits at most one leave, always last
		if k := len(events) - 1; k >= 0 && events[k].Kind == EventLeave {
			leaving = events[k].ID
		}
		for _, id := range dead {
			if id != leaving {
				events = append(events, LeaveEvent(id))
			}
		}
		return events
	}
}

// randomLive draws a uniformly random live node id, by rejection over
// the session's id space. It returns -1 when no live node turns up
// (an emptied network).
func randomLive(rng *rand.Rand, s *Session) int {
	n := s.Len()
	if n == 0 {
		return -1
	}
	for tries := 0; tries < 4*n+8; tries++ {
		id := rng.IntN(n)
		if s.Alive(id) {
			return id
		}
	}
	return -1
}

func clampTo(v, hi float64) float64 {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// Fleet owns M independent evolving networks — one Session each — and
// drives their reconfiguration ticks on a work-stealing scheduler with
// per-member tick clocks. Members are heterogeneous: each has its own
// engine stack, construction kind (oracle or distributed protocol) and
// per-round tick budget, and each advances at its own pace — a slow or
// large member never stalls the others' clocks beyond one bounded lease.
// Members never share mutable state: each has a private RNG stream,
// private accumulators, and a session pinned to the shard plan's inner
// worker budget, so per-member results are byte-identical given the
// member's seed at any worker count. (The PR 5 fleet-wide lockstep
// invariant — all members always at the same tick — is retired; the
// per-member invariant is the one that holds and is tested.)
//
// A Fleet serializes its own operations (Run, TickEvents, Report,
// Checkpoint may be called from any goroutine, one at a time); the
// individual sessions remain independently safe for concurrent use, and
// Watermarks reads the per-member clocks without blocking a run in
// flight.
type Fleet struct {
	eng     *Engine
	workers int

	mu      sync.Mutex
	nets    []*fleetNetwork
	hook    TickHook
	obsHook ObserveHook
}

// fleetNetwork is one member slot. Mutable state is touched only by the
// scheduler worker currently holding the member's lease (handed off
// through the ready queue, which orders the accesses) or under the fleet
// lock when no run is in flight; the clocks are atomics so Watermarks
// can read them from outside.
type fleetNetwork struct {
	net    int
	sess   *Session
	eng    *Engine // member engine; == the fleet engine without overrides
	kind   MemberKind
	weight int // ticks per fleet round (MemberSpec.Ticks)

	// src is the member's private PCG stream and rng the Rand view over
	// it. The source is retained because rand.Rand is a stateless wrapper:
	// checkpointing serializes src's ~20-byte state directly, so a
	// restored fleet resumes the exact stream position.
	src *rand.PCG
	rng *rand.Rand

	done   atomic.Int64 // completed ticks — the member's clock
	target atomic.Int64 // tick target the scheduler drives the clock to

	// health is the member's failure-domain state, atomic so Watermarks
	// and Health read it lock-free mid-run. The quarantine record is
	// guarded by its own mutex: it is written once per quarantine on a
	// worker goroutine and read by lock-free observers.
	health atomic.Uint32
	quarMu sync.Mutex
	quar   QuarantineRecord

	events int64      // events applied across all ticks
	series TickSeries // per-tick TickStats accumulators

	sched schedState
}

// quarantined reports the member's health without any lock.
func (n *fleetNetwork) quarantined() bool {
	return MemberHealth(n.health.Load()) == MemberQuarantined
}

// quarantine freezes the member: the panic and stack are recorded, and
// the health flip stops the scheduler, reports and event ingestion from
// ever touching the session again (it may be mid-mutation — Session
// locks release on panic via defer, but the state behind them is
// suspect until Readmit replaces it).
func (n *fleetNetwork) quarantine(tick int, cause any) {
	n.quarMu.Lock()
	n.quar = QuarantineRecord{
		Net:   n.net,
		Tick:  tick,
		Err:   fmt.Sprint(cause),
		Stack: string(debug.Stack()),
	}
	n.quarMu.Unlock()
	n.health.Store(uint32(MemberQuarantined))
}

// quarRecord snapshots the quarantine record.
func (n *fleetNetwork) quarRecord() QuarantineRecord {
	n.quarMu.Lock()
	defer n.quarMu.Unlock()
	return n.quar
}

// errMemberQuarantined flows from a panicking tick to the scheduler: the
// member is out, but the fleet operation continues for everyone else.
var errMemberQuarantined = errors.New("cbtc: fleet member quarantined")

// schedState is one member's scheduling telemetry. It measures wall
// clock, so unlike everything else in a report it is NOT deterministic;
// it is excluded from checkpoints and zeroed before report-equality
// assertions.
type schedState struct {
	leases   int64
	requeues int64
	timeouts int64
	busyNs   int64
	ewmaNs   int64 // flow-rate estimate of one tick's cost
}

// Lease sizing for the work-stealing scheduler. A lease aims at
// leaseTargetNs of work — the flow-rate estimate sizes the tick quantum
// so fast members batch many cheap ticks per queue round-trip while
// expensive members take one — and is hard-bounded by leaseBudgetNs:
// when a member turns slow mid-lease (churn grew it, a batch hit an
// expensive repair), the lease times out at the next tick boundary and
// the member requeues behind the others instead of monopolizing its
// worker. Vars, not consts, so tests can tighten them.
var (
	leaseTargetNs int64 = 2e6
	leaseBudgetNs int64 = 8e6
)

// maxLeaseTicks caps a lease's tick quantum — the bounded in-flight work
// per member.
const maxLeaseTicks = 32

// quantum sizes the next lease from the member's flow rate.
func (n *fleetNetwork) quantum() int {
	ewma := n.sched.ewmaNs
	if ewma <= 0 {
		return 1
	}
	q := leaseTargetNs / ewma
	if q < 1 {
		return 1
	}
	if q > maxLeaseTicks {
		return maxLeaseTicks
	}
	return int(q)
}

// tickOnce advances the member's clock by one tick: the hook, the tick's
// batch, one Session.Tick, the fold into the member's accumulators, the
// ObserveHook and the clock. Only where the batch comes from differs
// between callers — Advance's TickFunc or a TickEvents batch — so both
// run this one envelope. A panic anywhere in it, the batch source
// included, is recovered here: the member is quarantined with its clock
// frozen just below the panicking tick, and errMemberQuarantined tells the
// caller to drop the member without poisoning the rest of the fleet.
// Every tick charges its wall time to the member's BusyNs, and a completed
// tick updates the flow-rate estimate.
func (n *fleetNetwork) tickOnce(hook TickHook, obs ObserveHook, batch func(tick int) []Event) (err error) {
	start := time.Now()
	tick := int(n.done.Load())
	defer func() {
		if r := recover(); r != nil {
			n.quarantine(tick, r)
			err = errMemberQuarantined
		}
		n.sched.busyNs += time.Since(start).Nanoseconds()
	}()
	if hook != nil {
		hook(n.net, tick)
	}
	events := batch(tick)
	_, ts, err := n.sess.Tick(events)
	if err != nil {
		return fmt.Errorf("network %d tick %d: %w", n.net, tick, err)
	}
	n.events += int64(len(events))
	n.series.Observe(ts)
	if obs != nil {
		obs(n.net, tick, ts)
	}
	n.done.Add(1)
	cost := time.Since(start).Nanoseconds()
	if n.sched.ewmaNs == 0 {
		n.sched.ewmaNs = cost
	} else {
		n.sched.ewmaNs += (cost - n.sched.ewmaNs) / 4
	}
	return nil
}

// lease runs one bounded scheduling lease on the member: up to quantum()
// ticks of fn's events, aborted early at a tick boundary once the time
// budget is exceeded. It reports whether the member still has ticks
// outstanding (and must requeue).
func (n *fleetNetwork) lease(ctx context.Context, fn TickFunc, hook TickHook, obs ObserveHook) (again bool, err error) {
	n.sched.leases++
	quantum := n.quantum()
	start := time.Now()
	batch := func(tick int) []Event { return fn(n.net, tick, n.rng, n.sess) }
	for k := 0; k < quantum && n.done.Load() < n.target.Load(); k++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if err := n.tickOnce(hook, obs, batch); err != nil {
			return false, err
		}
		if k+1 < quantum && time.Since(start).Nanoseconds() > leaseBudgetNs {
			n.sched.timeouts++
			break
		}
	}
	if n.done.Load() < n.target.Load() {
		n.sched.requeues++
		return true, nil
	}
	return false, nil
}

// NewFleet builds a Fleet from the config's member specs, running the
// initial CBTC(α) construction of every member — oracle or protocol —
// across the shard pool. Per-member options are validated up front, so
// a bad override fails before any construction work. Cancelling ctx
// aborts construction.
func (e *Engine) NewFleet(ctx context.Context, cfg FleetConfig) (*Fleet, error) {
	specs, err := cfg.members()
	if err != nil {
		return nil, err
	}
	m := len(specs)
	workers := cfg.Workers
	if workers == 0 {
		workers = e.workers
	}
	if workers < 0 {
		return nil, fmt.Errorf("%w: negative fleet worker count %d", ErrBadConfig, cfg.Workers)
	}
	engines := make([]*Engine, m)
	for i := range specs {
		if engines[i], err = e.derive(specs[i].Options...); err != nil {
			return nil, fmt.Errorf("member %d options: %w", i, err)
		}
	}
	f := &Fleet{eng: e, workers: workers, nets: make([]*fleetNetwork, m), hook: cfg.TickHook, obsHook: cfg.ObserveHook}
	plan := planShards(workers, m)
	err = plan.run(ctx, m, func(ctx context.Context, i int) error {
		spec := specs[i]
		var sess *Session
		var err error
		switch spec.Kind {
		case MemberProtocol:
			sim := spec.Sim
			if sim.Seed == 0 {
				sim.Seed = workload.Mix(cfg.Seed, uint64(i))
			}
			sess, err = engines[i].newProtocolSession(ctx, spec.Placement, sim, plan.inner)
		default:
			sess, err = engines[i].newSession(ctx, spec.Placement, plan.inner)
		}
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			return fmt.Errorf("network %d: %w", i, err)
		}
		src := rand.NewPCG(cfg.Seed, workload.Mix(cfg.Seed, uint64(i)))
		f.nets[i] = &fleetNetwork{
			net: i, sess: sess, eng: engines[i],
			kind: spec.Kind, weight: spec.Ticks,
			src: src, rng: rand.New(src),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Size returns the number of members in the fleet.
func (f *Fleet) Size() int { return len(f.nets) }

// Session returns member i's Session, for direct inspection. The
// session is live — it keeps evolving with subsequent fleet ticks.
func (f *Fleet) Session(i int) *Session { return f.nets[i].sess }

// MemberClock is one member's tick-clock position.
type MemberClock struct {
	// Net is the member's index in the fleet.
	Net int
	// Kind and Weight echo the member's spec.
	Kind MemberKind
	// Weight is the member's tick budget per fleet round.
	Weight int
	// Ticks and Target are the member's completed ticks and current tick
	// target.
	Ticks, Target int
	// Health is the member's failure-domain state. A quarantined member's
	// clock is frozen: Ticks stops just below the panicking tick (Target
	// may sit above it — the work the member never completed).
	Health MemberHealth
}

// TickWatermarks summarizes ragged per-member progress: Min is the
// slowest member's completed ticks, Max the fastest's. Under the
// heterogeneous scheduler Min == Max only for homogeneous fleets at
// rest; anything reporting a single fleet "tick count" reports Min —
// what every member has completed at least.
type TickWatermarks struct {
	Min, Max int
}

// FleetWatermarks is the fleet's full clock state.
type FleetWatermarks struct {
	// Ticks holds the min/max completed-tick watermarks.
	Ticks TickWatermarks
	// Members lists every member's clock in fleet order.
	Members []MemberClock
}

// Watermarks reads every member's tick clock. It is safe to call at any
// time — including while a Run is in flight on another goroutine — and
// never blocks on the fleet lock: the clocks are atomics published at
// every tick boundary, which is how the straggler tests observe that
// fast members keep advancing while a slow member lags.
func (f *Fleet) Watermarks() FleetWatermarks {
	wm := FleetWatermarks{Members: make([]MemberClock, len(f.nets))}
	for i, net := range f.nets {
		c := MemberClock{
			Net: i, Kind: net.kind, Weight: net.weight,
			Ticks:  int(net.done.Load()),
			Target: int(net.target.Load()),
			Health: MemberHealth(net.health.Load()),
		}
		wm.Members[i] = c
		if i == 0 || c.Ticks < wm.Ticks.Min {
			wm.Ticks.Min = c.Ticks
		}
		if c.Ticks > wm.Ticks.Max {
			wm.Ticks.Max = c.Ticks
		}
	}
	return wm
}

// Advance advances every member by rounds fleet rounds — member i's
// tick target grows by rounds×Weight(i) — and drives all members to
// their targets on the work-stealing scheduler, without assembling a
// report. Run is Advance followed by Report.
//
// Per member the scheduler calls fn for each tick's events and applies
// them as one batched repair; members are leased to pool workers in
// bounded tick quanta sized by each member's measured flow rate, with a
// per-lease time budget that requeues a member that turns slow, so no
// member monopolizes a worker and fast members never wait for stragglers
// beyond one lease.
//
// Cancellation drains cleanly: workers stop at the next tick boundary
// and Advance returns ctx.Err(), leaving every session at a consistent
// repaired state (mid-tick progress never leaks — a tick either applied
// fully or not at all on each member). The tick targets are retained, so
// a later Advance first catches lagging members up before adding its own
// rounds; Advance(ctx, 0, fn) completes exactly the remainder of a
// cancelled run.
//
// Failure is isolated per member: a member whose tick panics is
// quarantined (MemberQuarantined — clock frozen, panic and stack
// recorded) while every healthy member still reaches its target, and
// Advance returns a *QuarantineError listing the new casualties. An
// already-quarantined member is skipped entirely: its target does not
// grow and it causes no further error. Errors that are returned rather
// than panicked (a TickFunc emitting invalid events) keep their
// fail-fast semantics.
func (f *Fleet) Advance(ctx context.Context, rounds int, fn TickFunc) error {
	if rounds < 0 {
		return fmt.Errorf("%w: negative round count %d", ErrBadConfig, rounds)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, net := range f.nets {
		if net.quarantined() {
			continue
		}
		net.target.Add(int64(rounds) * int64(net.weight))
	}
	return f.advanceLocked(ctx, fn)
}

// advanceLocked drives every member with outstanding ticks to its
// target on the work-stealing pool: members start on a ready queue,
// each pool worker leases one member at a time for a bounded quantum,
// and members with ticks still outstanding requeue at the tail. A
// member is held by at most one worker at a time, so its tick sequence
// is serial and its results scheduling-independent.
func (f *Fleet) advanceLocked(ctx context.Context, fn TickFunc) error {
	backlog := 0
	ready := make(chan *fleetNetwork, len(f.nets))
	for _, net := range f.nets {
		if !net.quarantined() && net.done.Load() < net.target.Load() {
			ready <- net
			backlog++
		}
	}
	if backlog == 0 {
		return ctx.Err()
	}
	var pending atomic.Int64
	pending.Store(int64(backlog))
	drained := make(chan struct{})

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	var (
		casMu      sync.Mutex
		casualties []*fleetNetwork
	)
	workers := planShards(f.workers, backlog).shards
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case <-drained:
					return
				case net := <-ready:
					again, err := net.lease(ctx, fn, f.hook, f.obsHook)
					if err == errMemberQuarantined {
						// The member is out, but the fleet is not: account it
						// as finished so the healthy members keep draining.
						casMu.Lock()
						casualties = append(casualties, net)
						casMu.Unlock()
						if pending.Add(-1) == 0 {
							close(drained)
						}
						continue
					}
					if err != nil {
						fail(err)
						return
					}
					if again {
						// Each member occupies at most one queue slot, so
						// the buffered send cannot block.
						ready <- net
					} else if pending.Add(-1) == 0 {
						close(drained)
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return quarantineError(casualties)
}

// quarantineError assembles a *QuarantineError (typed nil-free: a plain
// nil error when there are no casualties) in fleet order.
func quarantineError(casualties []*fleetNetwork) error {
	if len(casualties) == 0 {
		return nil
	}
	qe := &QuarantineError{Casualties: make([]QuarantineRecord, 0, len(casualties))}
	for _, net := range casualties {
		qe.Casualties = append(qe.Casualties, net.quarRecord())
	}
	slices.SortFunc(qe.Casualties, func(a, b QuarantineRecord) int { return a.Net - b.Net })
	return qe
}

// Run advances every member by rounds fleet rounds (Advance) and returns
// the aggregated FleetReport. When the advance quarantines members, Run
// still assembles the report — the healthy members' slice of it is
// complete and exact — and returns it alongside the *QuarantineError,
// so a caller that chooses to tolerate casualties loses nothing.
func (f *Fleet) Run(ctx context.Context, rounds int, fn TickFunc) (*FleetReport, error) {
	advErr := f.Advance(ctx, rounds, fn)
	var qe *QuarantineError
	if advErr != nil && !errors.As(advErr, &qe) {
		return nil, advErr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	rep, err := f.reportLocked(ctx)
	if err != nil {
		return nil, err
	}
	return rep, advErr
}

// TickEvents advances selected members by exactly one tick each,
// applying externally-supplied event batches instead of
// TickFunc-generated ones — the ingestion path of long-lived drivers
// (cmd/fleetd) that receive Join/Leave/Move traffic from outside.
// events must hold one slot per member (len(events) == Size). A nil
// batch skips its member — the clock does not move, which is how
// external traffic produces ragged per-member watermarks; a non-nil
// (even empty) batch counts as one tick for that member.
//
// Every batch is validated against its session's current state before
// anything is applied, so an invalid batch returns an ErrBadEvent error
// with the fleet untouched. Once started the tick is atomic: ctx is
// checked only at entry, each member's batch applies as one
// Session.Tick, and per-tick statistics fold into the same accumulators
// Run feeds.
//
// TickEvents requires each ticked member to be caught up to its tick
// target; after a cancelled Run or Advance, complete the remainder
// first with Advance(ctx, 0, fn). A non-nil batch for a quarantined
// member is refused up front (ErrBadEvent) with the fleet untouched —
// check Fleet.Health and route such traffic elsewhere. A member whose
// tick panics during the call is quarantined exactly as under Advance:
// the other ticked members complete their batches, and TickEvents
// returns a *QuarantineError naming the casualties (whose batches did
// not commit — their events must be considered lost until the member is
// readmitted or the state replayed).
func (f *Fleet) TickEvents(ctx context.Context, events [][]Event) error {
	if len(events) != len(f.nets) {
		return fmt.Errorf("%w: %d event batches for %d networks", ErrBadEvent, len(events), len(f.nets))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var ticked []int
	for i, net := range f.nets {
		if events[i] == nil {
			continue
		}
		if net.quarantined() {
			return fmt.Errorf("%w: network %d is quarantined (%s); readmit it before sending it events", ErrBadEvent, i, net.quarRecord().Err)
		}
		if done, target := net.done.Load(), net.target.Load(); done != target {
			return fmt.Errorf("%w: network %d is at tick %d but its target is %d; finish the interrupted run first", ErrBadEvent, i, done, target)
		}
		if err := net.sess.ValidateBatch(events[i]); err != nil {
			return fmt.Errorf("network %d: %w", i, err)
		}
		ticked = append(ticked, i)
	}
	if len(ticked) == 0 {
		return nil
	}
	for _, i := range ticked {
		f.nets[i].target.Add(1)
	}
	var (
		casMu      sync.Mutex
		casualties []*fleetNetwork
	)
	plan := planShards(f.workers, len(ticked))
	// Background context: the pre-validated tick must complete atomically,
	// or a cancellation would strand members mid-batch with their external
	// events lost.
	err := plan.run(context.Background(), len(ticked), func(_ context.Context, k int) error {
		i := ticked[k]
		net := f.nets[i]
		if err := net.tickOnce(f.hook, f.obsHook, func(int) []Event { return events[i] }); err != nil {
			if err == errMemberQuarantined {
				casMu.Lock()
				casualties = append(casualties, net)
				casMu.Unlock()
				return nil
			}
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	return quarantineError(casualties)
}

// MemberHealthStatus is one member's health slot in a FleetHealth.
type MemberHealthStatus struct {
	// Net is the member's index in the fleet.
	Net int
	// Health is the member's failure-domain state.
	Health MemberHealth
	// Quarantine holds the member's quarantine record when Health is
	// MemberQuarantined, nil otherwise.
	Quarantine *QuarantineRecord
}

// FleetHealth is the fleet's failure-domain summary.
type FleetHealth struct {
	// Healthy and Quarantined count members per health state.
	Healthy, Quarantined int
	// Members lists every member's status in fleet order.
	Members []MemberHealthStatus
}

// Health reads every member's failure-domain state. Like Watermarks it
// is lock-free and safe to call while a Run is in flight — it is how a
// driver notices casualties as they happen rather than at the end of
// the round.
func (f *Fleet) Health() FleetHealth {
	h := FleetHealth{Members: make([]MemberHealthStatus, len(f.nets))}
	for i, net := range f.nets {
		st := MemberHealthStatus{Net: i, Health: MemberHealth(net.health.Load())}
		if st.Health == MemberQuarantined {
			rec := net.quarRecord()
			st.Quarantine = &rec
			h.Quarantined++
		} else {
			h.Healthy++
		}
		h.Members[i] = st
	}
	return h
}

// SetTickHook installs (or, with nil, removes) the fleet's TickHook —
// the same hook FleetConfig.TickHook sets at construction, exposed as a
// setter so restored fleets (Engine.RestoreFleet) can be instrumented
// too. It must not be called while a Run, Advance or TickEvents is in
// flight.
func (f *Fleet) SetTickHook(h TickHook) {
	f.mu.Lock()
	f.hook = h
	f.mu.Unlock()
}

// SetObserveHook installs (or, with nil, removes) the fleet's
// ObserveHook — the same hook FleetConfig.ObserveHook sets at
// construction, exposed as a setter so restored fleets can be
// instrumented too. It must not be called while a Run, Advance or
// TickEvents is in flight.
func (f *Fleet) SetObserveHook(h ObserveHook) {
	f.mu.Lock()
	f.obsHook = h
	f.mu.Unlock()
}

// Observe sums every healthy member's current TickStats into one
// fleet-wide aggregate: Live, Edges, Components and Energy add across
// members (a fleet of m connected networks reports m components), the
// degree/radius averages are live-node-weighted means, and the battery
// fields pool across battery-model members only — Residual is the mean
// residual over their live nodes and EnergyVar the pooled population
// variance (within-member variance plus between-member mean spread), so
// a mixed fleet's non-battery members never drag the energy picture
// toward zero. Each member's read is the session's O(changed) Observe,
// so the whole call is cheap enough for liveness surfaces — cmd/fleetd's
// /healthz reports the component total through it on every probe.
// Quarantined members are skipped: their sessions are unreadable until
// readmitted.
func (f *Fleet) Observe() (TickStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var agg TickStats
	var radiusSum float64
	var batLive int
	var resSum, resSqSum float64 // Σ live·mean, Σ live·E[b²] over battery members
	for _, net := range f.nets {
		if net.quarantined() {
			continue
		}
		ts, err := net.sess.Observe()
		if err != nil {
			return TickStats{}, fmt.Errorf("network %d: %w", net.net, err)
		}
		agg.Live += ts.Live
		agg.Edges += ts.Edges
		agg.Components += ts.Components
		agg.Energy += ts.Energy
		radiusSum += ts.AvgRadius * float64(ts.Live)
		if net.eng.battery {
			batLive += ts.Live
			resSum += ts.Residual * float64(ts.Live)
			resSqSum += (ts.EnergyVar + ts.Residual*ts.Residual) * float64(ts.Live)
		}
	}
	if agg.Live > 0 {
		agg.AvgDegree = 2 * float64(agg.Edges) / float64(agg.Live)
		agg.AvgRadius = radiusSum / float64(agg.Live)
	}
	if batLive > 0 {
		mean := resSum / float64(batLive)
		agg.Residual = mean
		v := resSqSum/float64(batLive) - mean*mean
		if v < 0 { // floating-point cancellation on near-equal members
			v = 0
		}
		agg.EnergyVar = v
	}
	return agg, nil
}

// Report aggregates the fleet's current state into a FleetReport
// without advancing any ticks.
func (f *Fleet) Report() (*FleetReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reportLocked(context.Background())
}

// NetworkReport assembles member i's slice of the fleet report alone —
// the drill-down shape fleetd serves as GET /network/{i}, so the HTTP
// JSON and the Go API share field names exactly.
func (f *Fleet) NetworkReport(i int) (*FleetNetworkReport, error) {
	if i < 0 || i >= len(f.nets) {
		return nil, fmt.Errorf("%w: no network %d in a fleet of %d", ErrBadConfig, i, len(f.nets))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	nr, err := f.networkReportLocked(i)
	if err != nil {
		return nil, err
	}
	return &nr, nil
}

// networkReportLocked builds one member's report slot. A quarantined
// member's session is never touched — it may be mid-mutation from the
// panicking tick — so its slot carries the clock, the accumulated
// history (events, series) and the quarantine record, with the
// live-state fields (Final, Preserved, Stats, DegreeDist) zeroed.
func (f *Fleet) networkReportLocked(i int) (FleetNetworkReport, error) {
	net := f.nets[i]
	nr := FleetNetworkReport{
		Net:    i,
		Kind:   net.kind,
		Weight: net.weight,
		Ticks:  int(net.done.Load()),
		Target: int(net.target.Load()),
		Events: int(net.events),
		Series: net.series,
		Sched: MemberSchedStats{
			Leases:   net.sched.leases,
			Requeues: net.sched.requeues,
			Timeouts: net.sched.timeouts,
			BusyNs:   net.sched.busyNs,
			TickNs:   net.sched.ewmaNs,
		},
	}
	if net.quarantined() {
		rec := net.quarRecord()
		nr.Health = MemberQuarantined
		nr.Quarantine = &rec
		return nr, nil
	}
	snap, err := net.sess.Snapshot()
	if err != nil {
		return FleetNetworkReport{}, fmt.Errorf("network %d snapshot: %w", i, err)
	}
	ts, err := net.sess.Observe()
	if err != nil {
		return FleetNetworkReport{}, fmt.Errorf("network %d: %w", i, err)
	}
	nr.Final = ts
	nr.Preserved = snap.PreservesConnectivity()
	nr.Stats = net.sess.Stats()
	for id := 0; id < net.sess.Len(); id++ {
		if net.sess.Alive(id) {
			nr.DegreeDist.Add(snap.G.Degree(id))
		}
	}
	return nr, nil
}

// reportLocked assembles the report in two phases: the per-member
// snapshots fan across the shard pool into disjoint slots, then the
// aggregate accumulators merge serially in fleet order — so the merged
// floats, like everything else in the report except Sched, are
// independent of scheduling. Cancelling ctx aborts between snapshots.
func (f *Fleet) reportLocked(ctx context.Context) (*FleetReport, error) {
	rep := &FleetReport{
		Networks:   len(f.nets),
		PerNetwork: make([]FleetNetworkReport, len(f.nets)),
	}
	plan := planShards(f.workers, len(f.nets))
	err := plan.run(ctx, len(f.nets), func(_ context.Context, i int) error {
		nr, err := f.networkReportLocked(i)
		if err != nil {
			return err
		}
		rep.PerNetwork[i] = nr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.PerNetwork {
		nr := &rep.PerNetwork[i]
		if i == 0 || nr.Ticks < rep.Watermarks.Min {
			rep.Watermarks.Min = nr.Ticks
		}
		if nr.Ticks > rep.Watermarks.Max {
			rep.Watermarks.Max = nr.Ticks
		}
		rep.Events += nr.Events
		if nr.Health == MemberQuarantined {
			// The member's completed history (Events, Series) is fact and
			// stays in the aggregate; its unreadable live state does not.
			rep.Quarantined++
		} else {
			rep.Live += nr.Final.Live
			rep.Edges += nr.Final.Edges
			if nr.Preserved {
				rep.Preserved++
			}
			rep.DegreeDist.Merge(&nr.DegreeDist)
		}
		rep.Series.Merge(&nr.Series)
	}
	return rep, nil
}

// FleetReport aggregates a fleet's state across members. Everything in
// it — the per-member slots and the merged accumulators — is a pure
// function of the fleet's configuration and tick schedule, independent
// of the worker count the fleet ran with, except the per-member Sched
// telemetry, which measures wall clock.
type FleetReport struct {
	// Networks is the fleet size M.
	Networks int
	// Watermarks holds the min/max completed-tick counts across members.
	// Under heterogeneous tick budgets there is no single fleet tick
	// count: Min is what every member has completed at least (the PR 5
	// Ticks field's implicit meaning, now explicit), Max the fastest
	// member's clock.
	Watermarks TickWatermarks
	// Events is the total number of events applied across all members.
	Events int
	// Live and Edges total the live nodes and topology edges at report
	// time.
	Live, Edges int
	// Preserved counts members whose snapshot preserves the ground-truth
	// partition (Theorem 2.1's guarantee). Quarantined members are never
	// counted.
	Preserved int
	// Quarantined counts members under quarantine at report time. Their
	// live-state fields are excluded from Live, Edges, Preserved and
	// DegreeDist; their completed history stays in Events and Series.
	Quarantined int
	// Series merges every member's per-tick TickStats series: one
	// observation per member per completed tick.
	Series TickSeries
	// DegreeDist is the distribution of live-node degrees at report
	// time, across all members.
	DegreeDist stats.IntHist
	// PerNetwork holds each member's report in fleet order.
	PerNetwork []FleetNetworkReport
}

// MemberSchedStats is one member's work-stealing telemetry: how the
// scheduler actually served it. It measures wall clock and is therefore
// not deterministic — it is excluded from checkpoints and must be
// zeroed before byte-identity comparisons of reports.
type MemberSchedStats struct {
	// Leases counts scheduling leases granted to the member.
	Leases int64
	// Requeues counts leases that ended with ticks still outstanding.
	Requeues int64
	// Timeouts counts leases aborted early because the member exceeded
	// the per-lease time budget — the straggler path.
	Timeouts int64
	// BusyNs is the total wall-clock time spent in the member's ticks,
	// whether Advance or TickEvents fed them.
	BusyNs int64
	// TickNs is the flow-rate estimate (EWMA) of one tick's cost, which
	// sizes Advance's leases; every completed tick updates it.
	TickNs int64
}

// FleetNetworkReport is one member's slice of a FleetReport.
type FleetNetworkReport struct {
	// Net is the member's index in the fleet.
	Net int
	// Kind and Weight echo the member's spec.
	Kind MemberKind
	// Weight is the member's tick budget per fleet round.
	Weight int
	// Ticks and Target are the member's completed ticks and current tick
	// target (equal unless a run was cancelled mid-flight).
	Ticks, Target int
	// Events counts the member's applied events.
	Events int
	// Final is the member's topology metrics at report time.
	Final TickStats
	// Preserved reports whether the member's snapshot preserves the
	// ground-truth partition.
	Preserved bool
	// Stats are the session's cumulative §4 reconfiguration counts.
	Stats SessionStats
	// Series accumulates the member's per-tick TickStats series.
	Series TickSeries
	// DegreeDist is the member's live-node degree distribution at report
	// time.
	DegreeDist stats.IntHist
	// Health is the member's failure-domain state. When it is
	// MemberQuarantined the live-state fields (Final, Preserved, Stats,
	// DegreeDist) are zero — the session is not readable — and Quarantine
	// holds the record.
	Health MemberHealth
	// Quarantine is the member's quarantine record, nil while healthy.
	Quarantine *QuarantineRecord
	// Sched is the member's scheduling telemetry (wall clock — not
	// deterministic).
	Sched MemberSchedStats
}
