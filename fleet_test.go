package cbtc

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cbtc/internal/workload"
)

func fleetEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	eng, err := New(append([]Option{WithMaxRadius(workload.PaperRadius), WithShrinkBack()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// oracleMembers is one oracle member on the fleet engine's stack per
// placement, each ticking once per round.
func oracleMembers(placements [][]Point) []MemberSpec {
	members := make([]MemberSpec, len(placements))
	for i, p := range placements {
		members[i] = MemberSpec{Placement: p}
	}
	return members
}

func fleetTick(sc workload.FleetScenario) TickFunc {
	return DriftTick(TickProfile{
		Moves:     sc.Moves,
		Jitter:    sc.Jitter,
		JoinProb:  sc.JoinProb,
		LeaveProb: sc.LeaveProb,
		Width:     sc.Side,
		Height:    sc.Side,
	})
}

// zeroSched clears the wall-clock scheduling telemetry, the one
// non-deterministic part of a FleetReport, so reports can be compared
// byte-for-byte across worker counts and restore boundaries.
func zeroSched(rep *FleetReport) {
	for i := range rep.PerNetwork {
		rep.PerNetwork[i].Sched = MemberSchedStats{}
	}
}

// mixedMembers builds a deliberately heterogeneous member list: varying
// sizes, an oracle/protocol kind mix, per-member option overrides and
// tick weights 1–3.
func mixedMembers(t testing.TB, seed uint64) []MemberSpec {
	t.Helper()
	sizes := []int{40, 25, 60, 30, 45}
	members := make([]MemberSpec, len(sizes))
	for i, n := range sizes {
		sz := workload.MemberSize{N: n, Side: workload.LargeNSide(n)}
		members[i] = MemberSpec{
			Placement: workload.MemberPlacement(seed, i, sz),
			Ticks:     1 + i%3,
		}
	}
	members[1].Kind = MemberProtocol
	members[2].Options = []Option{WithAllOptimizations()}
	members[4].Kind = MemberProtocol
	members[4].Options = []Option{WithAlpha(AlphaAsymmetric), WithAsymmetricRemoval()}
	return members
}

// The redesigned determinism invariant, pinned: every member of a mixed
// oracle+protocol fleet — heterogeneous sizes, option stacks and tick
// weights — produces a byte-identical report slice and topology given
// its seed, at workers 1, 2 and 8. (The PR 5 fleet-wide lockstep
// invariant is retired; nothing here requires members to share a
// clock.)
func TestFleetWorkerCountInvariance(t *testing.T) {
	members := mixedMembers(t, 3)
	sc := workload.Fleet(len(members), 40, "uniform")
	tick := fleetTick(sc)
	ctx := context.Background()

	var want *FleetReport
	var wantGraphs []*Graph
	for _, workers := range []int{1, 2, 8} {
		fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: members, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fleet.Run(ctx, 4, tick)
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(rep)
		graphs := make([]*Graph, fleet.Size())
		for i := range graphs {
			snap, err := fleet.Session(i).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			graphs[i] = snap.G
		}
		if workers == 1 {
			want, wantGraphs = rep, graphs
			continue
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("workers=%d: fleet report differs from serial run", workers)
		}
		for i := range graphs {
			if !graphs[i].Equal(wantGraphs[i]) {
				t.Errorf("workers=%d: network %d topology differs from serial run", workers, i)
			}
		}
	}
	// Weights 1–3 over 4 rounds: the watermarks span 4..12 and each
	// member's series carries one observation per completed tick.
	if want.Networks != len(members) || want.Watermarks.Min != 4 || want.Watermarks.Max != 12 {
		t.Fatalf("report shape: networks=%d watermarks=%+v", want.Networks, want.Watermarks)
	}
	var totalTicks int64
	for i, nr := range want.PerNetwork {
		if nr.Ticks != 4*(1+i%3) || nr.Ticks != nr.Target {
			t.Errorf("network %d: ticks=%d target=%d, want %d", i, nr.Ticks, nr.Target, 4*(1+i%3))
		}
		totalTicks += int64(nr.Ticks)
	}
	if want.Preserved != want.Networks {
		t.Errorf("only %d/%d networks preserve the ground-truth partition", want.Preserved, want.Networks)
	}
	if got := want.Series.Degree.N(); got != totalTicks {
		t.Errorf("aggregate degree stream has %d observations, want %d", got, totalTicks)
	}
	if want.DegreeDist.N() != int64(want.Live) {
		t.Errorf("degree distribution mass %d != live nodes %d", want.DegreeDist.N(), want.Live)
	}
}

// Fuzz-style randomized equivalence: a fleet of M networks must be
// edge-identical to M sequential Sessions driven by the same tick
// streams — for the shrink-back stack and for the pairwise-removal
// stack.
func TestFleetEqualsSequentialSessions(t *testing.T) {
	ctx := context.Background()
	meta := rand.New(rand.NewPCG(77, 1))
	for trial := 0; trial < 4; trial++ {
		m := 2 + meta.IntN(5)
		n := 25 + meta.IntN(35)
		ticks := 1 + meta.IntN(4)
		seed := meta.Uint64()
		var opts []Option
		if trial%2 == 1 {
			// Odd trials run the pairwise-removal stack.
			opts = append(opts, WithAllOptimizations())
		}
		eng := fleetEngine(t, opts...)
		sc := workload.Fleet(m, n, "uniform")
		placements := sc.Placements(seed)
		tick := fleetTick(sc)

		fleet, err := eng.NewFleet(ctx, FleetConfig{Members: oracleMembers(placements), Seed: seed, Workers: 1 + meta.IntN(7)})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fleet.Run(ctx, ticks, tick)
		if err != nil {
			t.Fatal(err)
		}

		for i := 0; i < m; i++ {
			sess, err := eng.NewSession(ctx, placements[i])
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(seed, workload.Mix(seed, uint64(i))))
			for tk := 0; tk < ticks; tk++ {
				if _, err := sess.ApplyBatch(tick(i, tk, rng, sess)); err != nil {
					t.Fatal(err)
				}
			}
			want, err := sess.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := fleet.Session(i).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !got.G.Equal(want.G) {
				t.Fatalf("trial %d network %d: fleet topology differs from sequential session", trial, i)
			}
			if !got.GR.Equal(want.GR) {
				t.Fatalf("trial %d network %d: fleet G_R differs from sequential session", trial, i)
			}
			if fleet.Session(i).Stats() != sess.Stats() {
				t.Fatalf("trial %d network %d: fleet stats %+v, sequential %+v",
					trial, i, fleet.Session(i).Stats(), sess.Stats())
			}
			if rep.PerNetwork[i].Final.Edges != want.G.EdgeCount() {
				t.Fatalf("trial %d network %d: reported %d edges, session has %d",
					trial, i, rep.PerNetwork[i].Final.Edges, want.G.EdgeCount())
			}
		}
	}
}

// A mixed oracle+protocol fleet must be edge-identical to driving each
// member as a standalone session built the same way — NewSession for
// oracle members, NewProtocolSession (with the fleet's derived sim
// seed) for protocol members — under the same tick streams.
func TestFleetMixedEqualsSequential(t *testing.T) {
	const seed = 29
	ctx := context.Background()
	members := mixedMembers(t, seed)
	sc := workload.Fleet(len(members), 40, "uniform")
	tick := fleetTick(sc)

	fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: members, Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	if _, err := fleet.Run(ctx, rounds, tick); err != nil {
		t.Fatal(err)
	}

	for i, spec := range members {
		eng := fleetEngine(t, spec.Options...)
		var sess *Session
		switch spec.Kind {
		case MemberProtocol:
			sess, err = eng.NewProtocolSession(ctx, spec.Placement, SimOptions{Seed: workload.Mix(seed, uint64(i))})
		default:
			sess, err = eng.NewSession(ctx, spec.Placement)
		}
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, workload.Mix(seed, uint64(i))))
		for tk := 0; tk < rounds*spec.Ticks; tk++ {
			if _, err := sess.ApplyBatch(tick(i, tk, rng, sess)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := fleet.Session(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !got.G.Equal(want.G) || !got.GR.Equal(want.GR) {
			t.Errorf("member %d (%s): fleet topology differs from sequential run", i, spec.Kind)
		}
		if fleet.Session(i).Stats() != sess.Stats() {
			t.Errorf("member %d (%s): fleet stats %+v, sequential %+v", i, spec.Kind, fleet.Session(i).Stats(), sess.Stats())
		}
	}
}

// Straggler isolation: a member whose tick blocks must not stall the
// other members' clocks — they run to their targets while the straggler
// sits at tick 0, which the lock-free Watermarks read observes mid-run.
// The straggler holds exactly one worker (its lease), so the rest of
// the pool keeps draining the ready queue.
func TestFleetStragglerIsolation(t *testing.T) {
	const seed, slow, rounds = 17, 4, 5
	ctx := context.Background()
	sc := workload.Fleet(5, 30, "uniform")
	placements := sc.Placements(seed)
	tick := fleetTick(sc)

	// Reference: the same fleet with no blocking. The block wrapper
	// consumes no randomness, so results must match exactly.
	ref, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: oracleMembers(placements), Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := ref.Run(ctx, rounds, tick)
	if err != nil {
		t.Fatal(err)
	}

	fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: oracleMembers(placements), Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blocking := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		if net == slow {
			<-release // blocks until released; instant afterwards
		}
		return tick(net, tk, rng, s)
	}
	done := make(chan struct{})
	var gotRep *FleetReport
	var runErr error
	go func() {
		defer close(done)
		gotRep, runErr = fleet.Run(ctx, rounds, blocking)
	}()

	// The fast members must reach their targets while the straggler is
	// still at tick 0 — bounded in-flight work means its stall costs one
	// worker, not the fleet.
	deadline := time.Now().Add(30 * time.Second)
	for {
		wm := fleet.Watermarks()
		fastDone := true
		for i, c := range wm.Members {
			if i != slow && c.Ticks < rounds {
				fastDone = false
			}
		}
		if fastDone {
			if c := wm.Members[slow]; c.Ticks != 0 {
				t.Errorf("straggler advanced to tick %d while blocked", c.Ticks)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fast members did not finish while the straggler was blocked")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}

	// The straggler's first lease covered one tick (cold flow-rate
	// estimate), so finishing its remaining rounds requeued it at least
	// once.
	if rq := gotRep.PerNetwork[slow].Sched.Requeues; rq < 1 {
		t.Errorf("straggler requeues = %d, want >= 1", rq)
	}
	zeroSched(gotRep)
	zeroSched(wantRep)
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Error("straggler fleet report differs from unblocked reference")
	}
}

// The lease timeout path: a member that turns slow after building a
// fast flow-rate estimate (large tick quantum) must hit the per-lease
// time budget and be cut off early at a tick boundary.
func TestFleetLeaseTimeout(t *testing.T) {
	const seed = 23
	ctx := context.Background()
	sc := workload.Fleet(1, 25, "uniform")

	fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: oracleMembers(sc.Placements(seed)), Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 24 event-less ticks build a microsecond-scale estimate, inflating
	// the quantum to its cap; then every tick sleeps 3ms, so the 8ms
	// lease budget trips after ~3 ticks with most of the quantum unused.
	slowAfter := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		if tk >= 24 {
			time.Sleep(3 * time.Millisecond)
		}
		return nil
	}
	rep, err := fleet.Run(ctx, 40, slowAfter)
	if err != nil {
		t.Fatal(err)
	}
	sched := rep.PerNetwork[0].Sched
	if sched.Timeouts < 1 {
		t.Errorf("sched = %+v: no lease timed out despite the slow phase", sched)
	}
	if sched.Requeues < 1 {
		t.Errorf("sched = %+v: timed-out member was never requeued", sched)
	}
	if rep.PerNetwork[0].Ticks != 40 {
		t.Errorf("member finished at tick %d, want 40", rep.PerNetwork[0].Ticks)
	}
}

// Cancelling a fleet run mid-tick must drain cleanly: every session is
// left at a tick boundary (no partial shard progress corrupting later
// Snapshots), and finishing the remainder reproduces the uninterrupted
// run exactly.
func TestFleetCancellationMidTick(t *testing.T) {
	sc := workload.Fleet(8, 40, "uniform")
	placements := sc.Placements(11)
	tick := fleetTick(sc)
	ctx := context.Background()
	const ticks = 8

	ref, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: oracleMembers(placements), Seed: 21, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := ref.Run(ctx, ticks, tick)
	if err != nil {
		t.Fatal(err)
	}

	fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: oracleMembers(placements), Seed: 21, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cancelCtx, cancel := context.WithCancel(ctx)
	var calls atomic.Int32
	interrupting := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		if calls.Add(1) == 20 {
			cancel() // mid-run: roughly a third of the fleet's ticks issued
		}
		return tick(net, tk, rng, s)
	}
	if _, err := fleet.Run(cancelCtx, ticks, interrupting); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Run error = %v, want context.Canceled", err)
	}

	// Partial progress must not have corrupted any session: each one
	// still equals a fresh run over its live placement. The retained
	// targets expose the raggedness.
	wm := fleet.Watermarks()
	for i := 0; i < fleet.Size(); i++ {
		if wm.Members[i].Target != ticks {
			t.Errorf("network %d: target %d after cancellation, want %d", i, wm.Members[i].Target, ticks)
		}
		requireSessionMatchesFreshRun(t, fleet.Session(i).Engine(), fleet.Session(i))
	}

	// Run(ctx, 0, fn) completes exactly the remainder of the cancelled
	// run; the drained fleet must be byte-identical to the
	// uninterrupted reference.
	gotRep, err := fleet.Run(ctx, 0, interrupting)
	if err != nil {
		t.Fatal(err)
	}
	zeroSched(gotRep)
	zeroSched(wantRep)
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("drained fleet report differs from uninterrupted run")
	}
	for i := 0; i < fleet.Size(); i++ {
		want, err := ref.Session(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := fleet.Session(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !got.G.Equal(want.G) || !got.GR.Equal(want.GR) {
			t.Errorf("network %d: drained topology differs from uninterrupted run", i)
		}
	}
}

// A pre-cancelled context must abort before any tick applies.
func TestFleetPreCancelled(t *testing.T) {
	sc := workload.Fleet(3, 20, "uniform")
	fleet, err := fleetEngine(t).NewFleet(context.Background(), FleetConfig{Members: oracleMembers(sc.Placements(1)), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fleet.Run(ctx, 3, fleetTick(sc)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run error = %v, want context.Canceled", err)
	}
	rep, err := fleet.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Watermarks.Max != 0 || rep.Events != 0 {
		t.Errorf("pre-cancelled fleet applied ticks=%+v events=%d", rep.Watermarks, rep.Events)
	}
}

// An emptied (or empty-from-birth) network must not crash the drift
// generator: with no live nodes DriftTick can only emit joins, and the
// fleet keeps running.
func TestFleetEmptyNetwork(t *testing.T) {
	ctx := context.Background()
	fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{
		Members: oracleMembers([][]Point{{}, {Pt(0, 0), Pt(100, 0)}}),
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(ctx, 4, DriftTick(TickProfile{
		Moves: 3, Jitter: 50, JoinProb: 1, Width: 500, Height: 500,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerNetwork[0].Final.Live == 0 {
		t.Errorf("empty network gained no joins over %d ticks", rep.Watermarks.Min)
	}
	requireSessionMatchesFreshRun(t, fleet.Session(0).Engine(), fleet.Session(0))
}

// A member fed only through TickEvents, as every fleetd member is,
// reports the same per-tick scheduling telemetry as an Advance-driven
// one: busy time and the tick-cost estimate. Leases, requeues and
// timeouts belong to Advance's scheduler and stay zero.
func TestFleetTickEventsSchedTelemetry(t *testing.T) {
	ctx := context.Background()
	fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Members: chaosMembers(3, 2, 30), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 5; tick++ {
		batches := [][]Event{
			{MoveEvent(0, Pt(float64(100+10*tick), 100))},
			{JoinEvent(Pt(200, float64(200+10*tick)))},
		}
		if err := fleet.TickEvents(ctx, batches); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < fleet.Size(); i++ {
		nr, err := fleet.NetworkReport(i)
		if err != nil {
			t.Fatal(err)
		}
		sc := nr.Sched
		if nr.Ticks != 5 || sc.BusyNs <= 0 || sc.TickNs <= 0 {
			t.Errorf("member %d after %d TickEvents ticks: BusyNs %d, TickNs %d, want both positive", i, nr.Ticks, sc.BusyNs, sc.TickNs)
		}
		if sc.Leases != 0 || sc.Requeues != 0 || sc.Timeouts != 0 {
			t.Errorf("member %d: TickEvents counted scheduler leases: %+v", i, sc)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	eng := fleetEngine(t)
	ctx := context.Background()
	if _, err := eng.NewFleet(ctx, FleetConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty fleet error = %v, want ErrBadConfig", err)
	}
	sc := workload.Fleet(2, 15, "uniform")
	if _, err := eng.NewFleet(ctx, FleetConfig{Members: oracleMembers(sc.Placements(1)), Workers: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative workers error = %v, want ErrBadConfig", err)
	}
	bad := []MemberSpec{{Placement: sc.Placements(1)[0], Kind: MemberKind(9)}}
	if _, err := eng.NewFleet(ctx, FleetConfig{Members: bad}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown member kind error = %v, want ErrBadConfig", err)
	}
	bad[0] = MemberSpec{Placement: sc.Placements(1)[0], Ticks: -2}
	if _, err := eng.NewFleet(ctx, FleetConfig{Members: bad}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative tick budget error = %v, want ErrBadConfig", err)
	}
	bad[0] = MemberSpec{Placement: sc.Placements(1)[0], Options: []Option{WithAlpha(-1)}}
	if _, err := eng.NewFleet(ctx, FleetConfig{Members: bad}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad member option error = %v, want ErrBadConfig", err)
	}
	fleet, err := eng.NewFleet(ctx, FleetConfig{Members: oracleMembers(sc.Placements(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(ctx, -1, fleetTick(sc)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative ticks error = %v, want ErrBadConfig", err)
	}
	if fleet.Size() != 2 {
		t.Errorf("fleet size = %d, want 2", fleet.Size())
	}
	if _, err := fleet.NetworkReport(5); !errors.Is(err, ErrBadConfig) {
		t.Errorf("out-of-range NetworkReport error = %v, want ErrBadConfig", err)
	}
}

// A -race soak: a heterogeneous work-stealing run with concurrent
// direct session reads and lock-free Watermarks polls from outside the
// pool. Sessions serialize internally, member state is handed off
// through the ready queue, the clocks are atomics — the race detector
// sees the whole machinery under load.
func TestFleetRaceSoak(t *testing.T) {
	sc := workload.Fleet(12, 40, "clustered")
	placements := sc.Placements(9)
	members := make([]MemberSpec, len(placements))
	for i, p := range placements {
		members[i] = MemberSpec{Placement: p, Ticks: 1 + i%3}
	}
	members[3].Kind = MemberProtocol
	fleet, err := fleetEngine(t).NewFleet(context.Background(), FleetConfig{Members: members, Seed: 9, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	reads := make(chan error, 1)
	go func() {
		defer close(reads)
		for {
			select {
			case <-stop:
				return
			default:
			}
			wm := fleet.Watermarks()
			if len(wm.Members) != fleet.Size() {
				reads <- errors.New("short watermark read")
				return
			}
			for i := 0; i < fleet.Size(); i++ {
				if _, err := fleet.Session(i).Observe(); err != nil {
					reads <- err
					return
				}
			}
		}
	}()
	if _, err := fleet.Run(context.Background(), 5, fleetTick(sc)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-reads; err != nil {
		t.Fatal(err)
	}
}
