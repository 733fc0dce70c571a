package cbtc

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/workload"
)

// randomBatch draws a burst of events against the session's projected
// liveness: joins anywhere, leaves and moves on nodes live at the point
// their event applies.
func randomBatch(rng *rand.Rand, s *Session, size int, side float64) []Event {
	live := make([]int, 0, s.Len())
	for id := 0; id < s.Len(); id++ {
		if s.Alive(id) {
			live = append(live, id)
		}
	}
	var events []Event
	dead := map[int]bool{}
	for len(events) < size {
		pt := Pt(rng.Float64()*side, rng.Float64()*side)
		switch rng.IntN(5) {
		case 0:
			events = append(events, JoinEvent(pt))
		case 1:
			if len(live) > 1 {
				i := rng.IntN(len(live))
				if !dead[live[i]] {
					dead[live[i]] = true
					events = append(events, LeaveEvent(live[i]))
				}
			}
		default:
			i := rng.IntN(len(live))
			if !dead[live[i]] {
				events = append(events, MoveEvent(live[i], pt))
			}
		}
	}
	return events
}

// frozenResult is a deep copy of everything a Result reads: its
// discovery rows, both graphs, the per-node tables and the statistics.
type frozenResult struct {
	rows           [][]core.Discovery
	g, gpre, gr    []Edge
	radii, powers  []float64
	boundary       []bool
	degree, radius float64
	summary        core.Summary
	beacons        []float64
	removed        []Edge
}

func freezeResult(r *Result) frozenResult {
	f := frozenResult{
		g:        r.G.Edges(),
		gpre:     r.topo.Gpre.Edges(),
		gr:       r.GR.Edges(),
		radii:    slices.Clone(r.Radii),
		powers:   slices.Clone(r.Powers),
		boundary: slices.Clone(r.Boundary),
		degree:   r.AvgDegree,
		radius:   r.AvgRadius,
		summary:  r.topo.Summarize(),
		removed:  r.RemovedRedundant(),
	}
	for u, nr := range r.topo.Exec.Nodes {
		f.rows = append(f.rows, slices.Clone(nr.Neighbors))
		f.beacons = append(f.beacons, r.BeaconPower(u))
	}
	return f
}

// TestSnapshotSurvivesRepairs: a Snapshot's Exec rows are the session's
// pruned rows themselves, and repairs write regrown rows into the
// memory of the rows they replace whenever nothing outside the session
// can read it. A snapshot held across 24 further batches — teleports,
// joins, leaves and short drifts, which mostly regrow rows that fit
// where their old ones were — must read exactly as it did when taken,
// on every stack. Were a snapshot not to mark the rows shared, the
// repairs would write into the snapshot's rows.
func TestSnapshotSurvivesRepairs(t *testing.T) {
	const side = 1200.0
	ctx := context.Background()
	for _, opts := range [][]Option{
		{WithMaxRadius(300)},
		{WithMaxRadius(300), WithShrinkBack()},
		{WithMaxRadius(300), WithAllOptimizations()},
		{WithMaxRadius(300), WithShrinkBack(), WithShadowing(4, 3), WithShrinkBackSchedule(1.5)},
	} {
		eng, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession(ctx, workload.Uniform(workload.Rand(11), 150, side, side))
		if err != nil {
			t.Fatal(err)
		}
		rng := workload.Rand(12)
		step := func(i int) {
			events := randomBatch(rng, sess, 3, side)
			if i%2 == 1 {
				events = events[:0]
				for len(events) < 16 {
					id := rng.IntN(sess.Len())
					if !sess.Alive(id) || slices.ContainsFunc(events, func(ev Event) bool { return ev.ID == id }) {
						continue
					}
					p := sess.Position(id)
					p.X = max(0, min(side, p.X+(rng.Float64()*2-1)*40))
					p.Y = max(0, min(side, p.Y+(rng.Float64()*2-1)*40))
					events = append(events, MoveEvent(id, p))
				}
			}
			if _, err := sess.ApplyBatch(events); err != nil {
				t.Fatal(err)
			}
		}
		for i := range 8 {
			step(i) // the rows the snapshot reads are now repairs' rows
		}
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := freezeResult(snap)
		for i := range 24 {
			step(i)
		}
		if got := freezeResult(snap); !reflect.DeepEqual(got, want) {
			for u := range want.rows {
				if !reflect.DeepEqual(got.rows[u], want.rows[u]) {
					t.Fatalf("%d options: node %d's snapshot row changed under later repairs:\n got %v\nwant %v", len(opts), u, got.rows[u], want.rows[u])
				}
			}
			t.Fatalf("%d options: the snapshot changed under later repairs", len(opts))
		}
		requireSessionMatchesFreshRun(t, eng, sess)
	}
}

// TestApplyBatchEqualsSequential proves the batched path's tentpole
// contract: for the same event burst, ApplyBatch leaves the session in
// exactly the state the one-by-one Join/Leave/Move path reaches —
// topology, radii, powers and ground-truth G_R, edge for edge — and
// both equal a fresh run over the final placement.
func TestApplyBatchEqualsSequential(t *testing.T) {
	const side = 1200.0
	for _, opts := range [][]Option{
		{WithMaxRadius(300)},
		{WithMaxRadius(300), WithShrinkBack()},
		{WithMaxRadius(250), WithAlpha(AlphaAsymmetric), WithShrinkBack(), WithAsymmetricRemoval()},
		{WithMaxRadius(300), WithAllOptimizations()}, // pairwise removal on top
	} {
		eng, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(42, 1))
		pos := workload.Uniform(workload.Rand(11), 60, side, side)
		pts := make([]Point, len(pos))
		copy(pts, pos)

		batched, err := eng.NewSession(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		single, err := eng.NewSession(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 4; round++ {
			events := randomBatch(rng, batched, 3+rng.IntN(8), side)
			rep, err := batched.ApplyBatch(events)
			if err != nil {
				t.Fatal(err)
			}
			joins := 0
			for _, ev := range events {
				switch ev.Kind {
				case EventJoin:
					id, _ := single.Join(ev.Pos)
					if id != rep.JoinIDs[joins] {
						t.Fatalf("round %d: batch assigned id %d, sequential %d", round, rep.JoinIDs[joins], id)
					}
					joins++
				case EventLeave:
					if _, err := single.Leave(ev.ID); err != nil {
						t.Fatal(err)
					}
				case EventMove:
					if _, err := single.Move(ev.ID, ev.Pos); err != nil {
						t.Fatal(err)
					}
				}
			}
			if joins != len(rep.JoinIDs) {
				t.Fatalf("round %d: %d join ids reported for %d joins", round, len(rep.JoinIDs), joins)
			}

			bs, err := batched.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ss, err := single.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if batched.Len() != single.Len() {
				t.Fatalf("round %d: node counts diverged: %d vs %d", round, batched.Len(), single.Len())
			}
			for u := 0; u < batched.Len(); u++ {
				if batched.Alive(u) != single.Alive(u) {
					t.Fatalf("round %d: liveness of %d diverged", round, u)
				}
				if bs.Radii[u] != ss.Radii[u] || bs.Powers[u] != ss.Powers[u] || bs.Boundary[u] != ss.Boundary[u] {
					t.Fatalf("round %d: node %d state diverged", round, u)
				}
				for v := 0; v < batched.Len(); v++ {
					if bs.G.HasEdge(u, v) != ss.G.HasEdge(u, v) {
						t.Fatalf("round %d: edge {%d,%d}: batch=%v sequential=%v",
							round, u, v, bs.G.HasEdge(u, v), ss.G.HasEdge(u, v))
					}
					if bs.GR.HasEdge(u, v) != ss.GR.HasEdge(u, v) {
						t.Fatalf("round %d: GR edge {%d,%d}: batch=%v sequential=%v",
							round, u, v, bs.GR.HasEdge(u, v), ss.GR.HasEdge(u, v))
					}
				}
			}
			// And both equal a fresh run over the live placement.
			requireSessionMatchesFreshRun(t, eng, batched)
		}
	}
}

// TestApplyBatchValidation pins the all-or-nothing contract: an invalid
// event anywhere in the batch leaves the session untouched.
func TestApplyBatchValidation(t *testing.T) {
	eng, err := New(WithMaxRadius(300))
	if err != nil {
		t.Fatal(err)
	}
	pos := workload.Uniform(workload.Rand(3), 20, 800, 800)
	s, err := eng.NewSession(context.Background(), pos)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := [][]Event{
		{MoveEvent(99, Pt(1, 1))},                             // unknown node
		{LeaveEvent(-1)},                                      // negative id
		{LeaveEvent(3), MoveEvent(3, Pt(1, 1))},               // move after leave in same batch
		{LeaveEvent(3), LeaveEvent(3)},                        // double leave
		{MoveEvent(0, Pt(1, 1)), {Kind: 0, ID: 1}},            // unknown kind
		{JoinEvent(Pt(5, 5)), MoveEvent(21, Pt(2, 2))},        // beyond the one projected join
		{JoinEvent(Pt(5, 5)), LeaveEvent(20), LeaveEvent(20)}, // projected join then double leave
	}
	for i, events := range cases {
		if _, err := s.ApplyBatch(events); !errors.Is(err, ErrBadEvent) {
			t.Fatalf("case %d: error = %v, want ErrBadEvent", i, err)
		}
	}
	after, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20 || s.LiveCount() != 20 {
		t.Fatalf("failed batches mutated the session: len=%d live=%d", s.Len(), s.LiveCount())
	}
	if after.G.EdgeCount() != before.G.EdgeCount() || after.GR.EdgeCount() != before.GR.EdgeCount() {
		t.Fatal("failed batches mutated the topology")
	}

	// A batch referencing a node joined earlier in the same batch is
	// valid — including moving it.
	rep, err := s.ApplyBatch([]Event{
		JoinEvent(Pt(100, 100)),
		MoveEvent(20, Pt(150, 150)),
		LeaveEvent(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.JoinIDs) != 1 || rep.JoinIDs[0] != 20 {
		t.Fatalf("JoinIDs = %v, want [20]", rep.JoinIDs)
	}
	if s.Alive(20) {
		t.Fatal("node 20 should have departed within the batch")
	}
	requireSessionMatchesFreshRun(t, eng, s)

	// Empty batch: a no-op that keeps the snapshot cache warm.
	if _, err := s.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchCorrelatedDrift exercises the mobility-trace shape the
// batch API exists for — a cluster of nodes drifting together — and
// verifies the repaired state equals a fresh run.
func TestApplyBatchCorrelatedDrift(t *testing.T) {
	eng, err := New(WithMaxRadius(250), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	pos := workload.Uniform(workload.Rand(8), 150, 1500, 1500)
	s, err := eng.NewSession(context.Background(), pos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	// Drift the 24 nodes nearest the area center by a small jitter, three
	// ticks in a row.
	center := Pt(750, 750)
	for tick := 0; tick < 3; tick++ {
		type cand struct {
			id int
			d  float64
		}
		var cands []cand
		for id := 0; id < s.Len(); id++ {
			if s.Alive(id) {
				cands = append(cands, cand{id, s.Position(id).Dist(center)})
			}
		}
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if cands[j].d < cands[i].d {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
		}
		var events []Event
		for _, c := range cands[:24] {
			p := s.Position(c.id)
			events = append(events, MoveEvent(c.id, Pt(p.X+rng.Float64()*60-30, p.Y+rng.Float64()*60-30)))
		}
		rep, err := s.ApplyBatch(events)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Recomputed) == 0 {
			t.Fatal("drift batch recomputed nothing")
		}
	}
	requireSessionMatchesFreshRun(t, eng, s)
}

// A batch of classifyPipelineMin or more events on a session that may
// use several cores classifies its events on a goroutine alongside the
// structural pass. The same seeded histories, with joins, leaves, moves
// and nodes moved twice in one batch, run with one repair worker (the
// classification inline) and with two on two procs (pipelined) must
// yield identical batch reports and session statistics.
func TestClassificationPipelineMatchesInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const side = 1200.0
	for _, opts := range [][]Option{
		{WithMaxRadius(300), WithShrinkBack()},
		{WithMaxRadius(300), WithShrinkBack(), WithShadowing(4, 5)},
	} {
		run := func(workers int) ([]BatchReport, SessionStats, int) {
			eng, err := New(append([]Option{WithWorkers(workers)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			var reps []BatchReport
			var stats SessionStats
			piped := 0
			for seed := uint64(0); seed < 3; seed++ {
				sess, err := eng.NewSession(context.Background(), workload.Uniform(workload.Rand(seed), 120, side, side))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(seed, 7))
				for round := 0; round < 10; round++ {
					events := randomBatch(rng, sess, 1+rng.IntN(40), side)
					if len(events) >= classifyPipelineMin {
						piped++
					}
					rep, err := sess.ApplyBatch(events)
					if err != nil {
						t.Fatal(err)
					}
					reps = append(reps, rep)
				}
				st := sess.Stats()
				stats.AngleChanges += st.AngleChanges
				stats.Regrows += st.Regrows
				stats.Repairs += st.Repairs
			}
			return reps, stats, piped
		}
		inline, inlineStats, _ := run(1)
		piped, pipedStats, n := run(2)
		if n == 0 || inlineStats.AngleChanges == 0 || inlineStats.Regrows == 0 {
			t.Fatalf("history too tame: %d pipelined batches, %+v", n, inlineStats)
		}
		if !reflect.DeepEqual(inline, piped) || inlineStats != pipedStats {
			t.Fatalf("pipelined classification diverged: %+v inline, %+v pipelined", inlineStats, pipedStats)
		}
	}
}
