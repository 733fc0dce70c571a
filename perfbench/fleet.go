package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"cbtc"
	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/spatial"
	"cbtc/internal/workload"
)

// fleet-mobility sizing: 8 members of 1000 nodes on 2 workers, rounds
// per --seconds, warm-up rounds and NewFleet repeats.
const (
	fleetMembers         = 8
	fleetNodes           = 1000
	fleetWorkers         = 2
	fleetRoundsPerSecond = 6.4
	fleetWarmup          = 3
	fleetSetupReps       = 5
	fleetRSSWindow       = 8 // rounds per peak-resident-set window
	fleetShadowSigmaDB   = 4
)

// fleetKinds names each member's stack, by member index: five
// shrink-back oracle members (fleetd's stack), one all-optimizations
// member (pairwise removal: the snapshot-rebuild path), one shadowed
// member (the link-dependent oracle) and one protocol-built member.
var fleetKinds = [fleetMembers]string{
	"shrinkback", "shrinkback", "shrinkback", "shrinkback", "shrinkback",
	"pairwise", "shadowed", "protocol",
}

// fleetSetup is everything a fleet-mobility run builds from its seed.
type fleetSetup struct {
	eng     *cbtc.Engine
	cfg     cbtc.FleetConfig
	profile cbtc.TickProfile
}

func newFleetSetup(seed uint64) (fleetSetup, error) {
	sc := workload.Fleet(fleetMembers, fleetNodes, "uniform")
	eng, err := cbtc.New(cbtc.WithMaxRadius(sc.Radius), cbtc.WithShrinkBack())
	if err != nil {
		return fleetSetup{}, err
	}
	placements := sc.Placements(seed)
	members := make([]cbtc.MemberSpec, fleetMembers)
	for i, kind := range fleetKinds {
		members[i].Placement = placements[i]
		switch kind {
		case "pairwise":
			members[i].Options = []cbtc.Option{cbtc.WithAllOptimizations()}
		case "shadowed":
			members[i].Options = []cbtc.Option{cbtc.WithShadowing(fleetShadowSigmaDB, seed)}
		case "protocol":
			members[i].Kind = cbtc.MemberProtocol
		}
	}
	return fleetSetup{
		eng: eng,
		cfg: cbtc.FleetConfig{Members: members, Seed: seed, Workers: fleetWorkers},
		profile: cbtc.TickProfile{
			Moves: sc.Moves, Jitter: sc.Jitter,
			JoinProb: sc.JoinProb, LeaveProb: sc.LeaveProb,
			Width: sc.Side, Height: sc.Side,
		},
	}, nil
}

// fleetSetupSample takes one set-up sample: the time of one NewFleet.
func fleetSetupSample(ctx context.Context, fs fleetSetup) (float64, *cbtc.Fleet, error) {
	runtime.GC() // each construction starts from a collected heap
	t := time.Now()
	f, err := fs.eng.NewFleet(ctx, fs.cfg)
	return time.Since(t).Seconds(), f, err
}

// buildFleet runs NewFleet fleetSetupReps times and keeps the last
// fleet; it returns every construction time.
func buildFleet(ctx context.Context, fs fleetSetup) (*cbtc.Fleet, []float64, error) {
	setups := make([]float64, fleetSetupReps)
	var f *cbtc.Fleet
	for i := range setups {
		f = nil // the previous fleet is garbage before the next is built
		var err error
		if setups[i], f, err = fleetSetupSample(ctx, fs); err != nil {
			return nil, nil, err
		}
	}
	return f, setups, nil
}

// fleetRound is one op: advance every member one tick, then observe
// the fleet.
func fleetRound(ctx context.Context, f *cbtc.Fleet, fn cbtc.TickFunc) error {
	if err := f.Advance(ctx, 1, fn); err != nil {
		return err
	}
	_, err := f.Observe()
	return err
}

// fleetQuery is the read between rounds: member i's report, as fleetd
// serves GET /network/{i}. It fails the round's op when the member is
// quarantined or its topology lost G_R's partition.
func fleetQuery(f *cbtc.Fleet, i int) (time.Duration, error) {
	t := time.Now()
	nr, err := f.NetworkReport(i)
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	if nr.Health != cbtc.MemberHealthy || !nr.Preserved {
		return d, fmt.Errorf("member %d: health %v, preserved %v", i, nr.Health, nr.Preserved)
	}
	return d, nil
}

// fleetFinalGates checks the fleet at the end of a run, untimed: no
// quarantine, every member preserves G_R's partition, and every
// oracle-built member equals a fresh Engine.Run on its live placement.
func fleetFinalGates(ctx context.Context, g *gates, f *cbtc.Fleet) error {
	rep, err := f.Report()
	if err != nil {
		return err
	}
	g.check(rep.Quarantined == 0, "%d members quarantined", rep.Quarantined)
	g.check(rep.Preserved == rep.Networks, "Report().Preserved %d ≠ Networks %d", rep.Preserved, rep.Networks)
	for i, kind := range fleetKinds {
		if kind == "protocol" {
			continue
		}
		same, err := matchesFreshRun(ctx, f.Session(i))
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		g.check(same, "member %d (%s): Snapshot differs from a fresh Engine.Run on its live placement", i, kind)
	}
	return nil
}

// matchesFreshRun reports whether the session's topology is
// edge-identical to a fresh run with the session's own engine over its
// live nodes (departed ids are isolated in the snapshot). Distance-pure
// radios get a literal Engine.Run on the compacted live placement.
// Shadowing is keyed by node id, so under it compacting the ids would
// change the radio environment; there the fresh run keeps the session's
// ids and masks the departed nodes (core.RunNode with an alive mask,
// then core.BuildTopology with the engine's stack).
func matchesFreshRun(ctx context.Context, s *cbtc.Session) (bool, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return false, err
	}
	var ids []int
	var live []cbtc.Point
	pos := make([]cbtc.Point, s.Len())
	alive := make([]bool, s.Len())
	for id := range pos {
		pos[id], alive[id] = s.Position(id), s.Alive(id)
		if alive[id] {
			ids = append(ids, id)
			live = append(live, pos[id])
		}
	}
	eng := s.Engine()
	prop := eng.Propagation()
	var fresh *graph.Graph
	if prop.DistancePure() {
		r, err := eng.Run(ctx, live)
		if err != nil {
			return false, err
		}
		fresh = r.G
	} else {
		c := eng.Config()
		exec := &core.Execution{Alpha: c.Alpha, Model: prop.Nominal(), Pos: pos, Nodes: make([]core.NodeResult, len(pos))}
		grid := spatial.New(pos, prop.MaxLinkRadius())
		var runner core.NodeRunner
		for _, u := range ids {
			exec.Nodes[u] = runner.RunNode(pos, alive, prop, c.Alpha, u, grid)
		}
		topo, err := core.BuildTopology(exec, core.Options{
			ShrinkBack:        c.ShrinkBack,
			AsymmetricRemoval: c.AsymmetricRemoval,
			PairwiseRemoval:   c.PairwiseRemoval,
			PairwisePolicy:    c.PairwisePolicy,
		})
		if err != nil {
			return false, err
		}
		fresh = topo.G
		ids = nil // ids are already the session's
	}
	if fresh.EdgeCount() != snap.G.EdgeCount() {
		return false, nil
	}
	for _, e := range fresh.Edges() {
		u, v := e.U, e.V
		if ids != nil {
			u, v = ids[u], ids[v]
		}
		if !snap.G.HasEdge(u, v) {
			return false, nil
		}
	}
	return true, nil
}

func runFleet(cfg runConfig) (outcome, error) {
	ctx := context.Background()
	fs, err := newFleetSetup(cfg.seed)
	if err != nil {
		return outcome{}, err
	}
	f, setups, err := buildFleet(ctx, fs)
	if err != nil {
		return outcome{}, err
	}
	if cfg.trace {
		return runFleetTraced(ctx, cfg, fs, f)
	}
	tick := cbtc.DriftTick(fs.profile)
	n := int(fleetRoundsPerSecond * float64(cfg.seconds))
	total := fleetWarmup + n
	var (
		g               gates
		lat, queries    []float64
		opTime, cpuTime time.Duration
		failed          int
		rss             = windowPeaks{size: fleetRSSWindow}
	)
	// More set-up samples, one after each peak-RSS window, spread set-up
	// timing over the run, so that a slow spell of the host at start-up
	// moves it no more than it moves the rounds.
	moreSetup := func() error {
		s, _, err := fleetSetupSample(ctx, fs)
		setups = append(setups, s)
		return err
	}
	for k := 0; k < total; k++ {
		if k == fleetWarmup {
			debug.FreeOSMemory() // the first window starts as addSelfRSS starts the others
		}
		c0, t0 := selfCPU(), time.Now()
		err := fleetRound(ctx, f, tick)
		d, c := time.Since(t0), selfCPU()-c0
		var qe *cbtc.QuarantineError
		if err != nil && !errors.As(err, &qe) {
			return outcome{}, fmt.Errorf("round %d: %w", k, err)
		}
		g.check(err == nil, "round %d: %v", k, err)
		q, qerr := fleetQuery(f, k%fleetMembers)
		g.check(qerr == nil, "round %d query: %v", k, qerr)
		if err != nil || qerr != nil {
			failed++
		}
		if k < fleetWarmup {
			continue
		}
		if err := addSelfRSS(&rss, moreSetup); err != nil {
			return outcome{}, err
		}
		lat = append(lat, ms(d))
		queries = append(queries, ms(q))
		opTime += d
		cpuTime += c
	}
	before := g.failed
	if err := fleetFinalGates(ctx, &g, f); err != nil {
		return outcome{}, err
	}
	failed += g.failed - before
	o := outcome{
		attempted: total,
		failed:    failed,
		metrics: map[string]float64{
			"setup_s":       median(setups),
			"ops_per_s":     float64(n) / opTime.Seconds(),
			"op_p50_ms":     percentile(lat, 50),
			"op_p90_ms":     percentile(lat, 90),
			"cpu_ms_per_op": ms(cpuTime) / float64(n),
			"peak_rss_mb":   rss.median(),
			"query_p50_ms":  percentile(queries, 50),
			"query_p90_ms":  percentile(queries, 90),
		},
	}
	o.notes = append(o.notes, fmt.Sprintf("round p99 %.4g ms over %d rounds; query (Fleet.NetworkReport) p99 %.4g ms", percentile(lat, 99), len(lat), percentile(queries, 99)))
	o.notes = append(o.notes, g.notes...)
	return o, nil
}

// fleetTracer records one traced round's member-tick spans from the
// fleet's hooks. op and advance are written before Advance starts its
// workers; open[net] is touched only by the worker holding member net.
type fleetTracer struct {
	rec     *recorder
	op      int
	advance int
	open    [fleetMembers]int
	drift   cbtc.TickFunc
}

func (t *fleetTracer) tickHook(net, _ int) {
	t.open[net] = t.rec.begin("session.tick_ms."+fleetKinds[net], t.op, t.advance)
}

func (t *fleetTracer) observeHook(net, _ int, _ cbtc.TickStats) { t.rec.end(t.open[net]) }

func (t *fleetTracer) tick(net, tick int, rng *rand.Rand, s *cbtc.Session) []cbtc.Event {
	id := t.rec.begin("workload.drift_tick_us", t.op, t.open[net])
	ev := t.drift(net, tick, rng, s)
	t.rec.end(id)
	return ev
}

// runFleetTraced alternates traced and untraced rounds on one fleet,
// records member 0's batches, and replays them on a standalone Session
// to time ApplyBatch and Observe alone.
func runFleetTraced(ctx context.Context, cfg runConfig, fs fleetSetup, f *cbtc.Fleet) (outcome, error) {
	rec := newRecorder()
	tr := &fleetTracer{rec: rec, drift: cbtc.DriftTick(fs.profile)}
	var batches [][]cbtc.Event // member 0's events, tick by tick
	record := func(fn cbtc.TickFunc) cbtc.TickFunc {
		return func(net, tick int, rng *rand.Rand, s *cbtc.Session) []cbtc.Event {
			ev := fn(net, tick, rng, s)
			if net == 0 {
				batches = append(batches, slices.Clone(ev))
			}
			return ev
		}
	}
	plainTick, tracedTick := record(tr.drift), record(tr.tick)

	n := int(fleetRoundsPerSecond * float64(cfg.seconds))
	total := fleetWarmup + n
	var (
		g                   gates
		tracedLat, plainLat []float64
		idleNs              float64
		allocs, allocBytes  uint64
		allocRounds         int
		failed              int
		sched0              []cbtc.MemberSchedStats
		ms0, ms1            runtime.MemStats
	)
	for k := 0; k < total; k++ {
		if k == fleetWarmup {
			var err error
			if sched0, err = schedStats(f); err != nil {
				return outcome{}, err
			}
		}
		traced := k >= fleetWarmup && k%2 == 0
		var err error
		var d time.Duration
		if traced {
			f.SetTickHook(tr.tickHook)
			f.SetObserveHook(tr.observeHook)
			t0 := time.Now()
			root := rec.begin("op", k, -1)
			tr.op = k
			tr.advance = rec.begin("fleet.advance_ms", k, root)
			err = f.Advance(ctx, 1, tracedTick)
			rec.end(tr.advance)
			obs := rec.begin("fleet.observe_us", k, root)
			if err == nil {
				_, err = f.Observe()
			}
			rec.end(obs)
			rec.end(root)
			d = time.Since(t0)
			f.SetTickHook(nil)
			f.SetObserveHook(nil)
		} else {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			err = fleetRound(ctx, f, plainTick)
			d = time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if k >= fleetWarmup {
				allocs += ms1.Mallocs - ms0.Mallocs
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				allocRounds++
			}
		}
		var qe *cbtc.QuarantineError
		if err != nil && !errors.As(err, &qe) {
			return outcome{}, fmt.Errorf("round %d: %w", k, err)
		}
		g.check(err == nil, "round %d: %v", k, err)
		_, qerr := fleetQuery(f, k%fleetMembers)
		g.check(qerr == nil, "round %d query: %v", k, qerr)
		if err != nil || qerr != nil {
			failed++
		}
		if k < fleetWarmup {
			continue
		}
		if traced {
			tracedLat = append(tracedLat, ms(d))
		} else {
			plainLat = append(plainLat, ms(d))
		}
	}
	sched1, err := schedStats(f)
	if err != nil {
		return outcome{}, err
	}
	spans := rec.snapshot()
	for _, s := range spans {
		if s.name == "fleet.advance_ms" {
			idleNs += float64(fleetWorkers * (s.end - s.start))
		}
		if layerOf(s.name) == "session" {
			idleNs -= float64(s.end - s.start)
		}
	}
	before := g.failed
	if err := fleetFinalGates(ctx, &g, f); err != nil {
		return outcome{}, err
	}
	rp, err := replaySession(ctx, fs, batches, f.Session(0))
	if err != nil {
		return outcome{}, err
	}
	g.check(rp.identical, "session replay of member 0 is not edge-identical to the fleet's member 0")
	failed += g.failed - before

	b := layerBreakdown(spans)
	m := zeroLayers()
	for name, ns := range b.selfNs {
		m[name] = inUnit(name, ns)
	}
	tracedOps := float64(b.ops)
	m["fleet.idle_ms"] = idleNs / tracedOps / 1e6
	var leases, requeues, timeouts int64
	for i := range sched1 {
		leases += sched1[i].Leases - sched0[i].Leases
		requeues += sched1[i].Requeues - sched0[i].Requeues
		timeouts += sched1[i].Timeouts - sched0[i].Timeouts
	}
	m["fleet.leases"] = float64(leases) / float64(n)
	m["fleet.requeues"] = float64(requeues) / float64(n)
	m["fleet.timeouts"] = float64(timeouts) / float64(n)
	m["fleet.allocs"] = float64(allocs) / float64(allocRounds)
	m["fleet.alloc_kb"] = float64(allocBytes) / 1024 / float64(allocRounds)
	m["session.apply_batch_ms"] = rp.applyMs
	m["session.observe_us"] = rp.observeUs
	m["session.recomputed_per_tick"] = rp.recomputed
	m["session.regrows_per_tick"] = rp.regrows
	m["session.repairs_per_tick"] = rp.repairs
	m["session.allocs"] = rp.allocs
	m["session.alloc_kb"] = rp.allocKB
	m["remainder_ms"] = b.remainder / 1e6
	m["tracing_overhead_ms"] = percentile(tracedLat, 50) - percentile(plainLat, 50)
	o := outcome{attempted: total, failed: failed, metrics: m}
	o.notes = append(o.notes, breakdownNotes(b, percentile(tracedLat, 50), percentile(plainLat, 50))...)
	o.notes = append(o.notes,
		"remainder is negative by the time member ticks ran concurrently on the 2 workers (their self times add up past the wall clock)",
		fmt.Sprintf("session replay: %d ticks of member 0, Session.Stats regrows %d repairs %d", rp.ticks, rp.totalRegrows, rp.totalRepairs))
	o.notes = append(o.notes, g.notes...)
	return o, nil
}

// schedStats reads every member's scheduler telemetry.
func schedStats(f *cbtc.Fleet) ([]cbtc.MemberSchedStats, error) {
	rep, err := f.Report()
	if err != nil {
		return nil, err
	}
	out := make([]cbtc.MemberSchedStats, len(rep.PerNetwork))
	for i, nr := range rep.PerNetwork {
		out[i] = nr.Sched
	}
	return out, nil
}

// replay is the standalone-session breakdown of member 0's ticks.
type replay struct {
	ticks                        int
	applyMs, observeUs           float64 // per tick
	recomputed, regrows, repairs float64 // per tick
	allocs, allocKB              float64 // per tick
	totalRegrows, totalRepairs   int
	identical                    bool
}

// replaySession applies member 0's recorded batches to a standalone
// Session built from the same placement, timing ApplyBatch and Observe
// per tick (the warm-up rounds' ticks are applied but not measured),
// and checks the result is edge-identical to the fleet's member 0.
func replaySession(ctx context.Context, fs fleetSetup, batches [][]cbtc.Event, member *cbtc.Session) (replay, error) {
	s, err := fs.eng.NewSession(ctx, fs.cfg.Members[0].Placement)
	if err != nil {
		return replay{}, err
	}
	var (
		rp                 replay
		applyNs, observeNs int64
		recomputed         int
		allocs, bytes      uint64
		ms0, ms1           runtime.MemStats
		stats0             cbtc.SessionStats
	)
	for k, batch := range batches {
		if k == fleetWarmup {
			stats0 = s.Stats()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		rep, err := s.ApplyBatch(batch)
		t1 := time.Now()
		if err != nil {
			return replay{}, fmt.Errorf("replay tick %d: %w", k, err)
		}
		if _, err := s.Observe(); err != nil {
			return replay{}, fmt.Errorf("replay tick %d: %w", k, err)
		}
		t2 := time.Now()
		runtime.ReadMemStats(&ms1)
		if k < fleetWarmup {
			continue
		}
		rp.ticks++
		applyNs += int64(t1.Sub(t0))
		observeNs += int64(t2.Sub(t1))
		recomputed += len(rep.Recomputed)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	if rp.ticks == 0 {
		return replay{}, errors.New("replay: no measured ticks")
	}
	st := s.Stats()
	rp.totalRegrows = st.Regrows - stats0.Regrows
	rp.totalRepairs = st.Repairs - stats0.Repairs
	t := float64(rp.ticks)
	rp.applyMs = float64(applyNs) / t / 1e6
	rp.observeUs = float64(observeNs) / t / 1e3
	rp.recomputed = float64(recomputed) / t
	rp.regrows = float64(rp.totalRegrows) / t
	rp.repairs = float64(rp.totalRepairs) / t
	rp.allocs = float64(allocs) / t
	rp.allocKB = float64(bytes) / 1024 / t

	a, err := s.Snapshot()
	if err != nil {
		return replay{}, err
	}
	b, err := member.Snapshot()
	if err != nil {
		return replay{}, err
	}
	rp.identical = slices.Equal(a.G.Edges(), b.G.Edges())
	return rp, nil
}
