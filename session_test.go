package cbtc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
	"cbtc/internal/workload"
)

// sessionLiveMap returns the session's live node ids (ascending) and
// their positions — the placement a fresh run would see.
func sessionLiveMap(s *Session) ([]int, []Point) {
	ids := make([]int, 0, s.Len())
	pos := make([]Point, 0, s.Len())
	for id := 0; id < s.Len(); id++ {
		if s.Alive(id) {
			ids = append(ids, id)
			pos = append(pos, s.Position(id))
		}
	}
	return ids, pos
}

// requireSessionMatchesFreshRun asserts the §4 convergence property:
// the incrementally-maintained topology equals a from-scratch Engine.Run
// over the current live placement, edge for edge and power for power.
// Shadowing is keyed by node id, so compacting the live ids would change
// a shadowed radio; there the fresh run keeps the session's ids
// (requireSessionMatchesKeyedRun).
func requireSessionMatchesFreshRun(t *testing.T, eng *Engine, s *Session) {
	t.Helper()
	if !eng.prop.DistancePure() {
		requireSessionMatchesKeyedRun(t, s)
		return
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ids, livePos := sessionLiveMap(s)
	fresh, err := eng.Run(context.Background(), livePos)
	if err != nil {
		t.Fatal(err)
	}
	for fi, u := range ids {
		for fj, v := range ids {
			if snap.G.HasEdge(u, v) != fresh.G.HasEdge(fi, fj) {
				t.Fatalf("edge {%d,%d}: session=%v fresh=%v",
					u, v, snap.G.HasEdge(u, v), fresh.G.HasEdge(fi, fj))
			}
		}
		if snap.Radii[u] != fresh.Radii[fi] {
			t.Fatalf("node %d: session radius %v, fresh %v", u, snap.Radii[u], fresh.Radii[fi])
		}
		if snap.Powers[u] != fresh.Powers[fi] {
			t.Fatalf("node %d: session power %v, fresh %v", u, snap.Powers[u], fresh.Powers[fi])
		}
		if snap.Boundary[u] != fresh.Boundary[fi] {
			t.Fatalf("node %d: session boundary %v, fresh %v", u, snap.Boundary[u], fresh.Boundary[fi])
		}
	}
	// The ground-truth G_R — incrementally maintained since PR 3 — must
	// match the fresh run's too.
	for fi, u := range ids {
		for fj, v := range ids {
			if snap.GR.HasEdge(u, v) != fresh.GR.HasEdge(fi, fj) {
				t.Fatalf("GR edge {%d,%d}: session=%v fresh=%v",
					u, v, snap.GR.HasEdge(u, v), fresh.GR.HasEdge(fi, fj))
			}
		}
	}
	// Departed nodes must be isolated.
	for id := 0; id < s.Len(); id++ {
		if !s.Alive(id) && snap.G.Degree(id) != 0 {
			t.Fatalf("departed node %d still has %d edges", id, snap.G.Degree(id))
		}
		if !s.Alive(id) && snap.GR.Degree(id) != 0 {
			t.Fatalf("departed node %d still has %d GR edges", id, snap.GR.Degree(id))
		}
	}
}

// requireSessionMatchesKeyedRun compares the session with a fresh run on
// its own ids: core.RunNode for every live node under the liveness mask,
// then core.BuildTopology with the engine's stack. Every node's growing
// phase result — discoveries, GrowPower, boundary flag — must be bitwise
// equal to the fresh one, and the snapshot must be identical to the
// fresh Result over the maximum-power G_R with departed nodes isolated.
// Incremental stacks only: the pairwise snapshot derives G_R from the
// nominal model.
func requireSessionMatchesKeyedRun(t *testing.T, s *Session) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	eng := s.eng
	exec := &core.Execution{
		Alpha: eng.cfg.Alpha,
		Model: eng.model,
		Pos:   append([]Point(nil), s.pos...),
		Nodes: make([]core.NodeResult, len(s.pos)),
	}
	grid := spatial.New(s.pos, eng.prop.MaxLinkRadius())
	for u, alive := range s.alive {
		if !alive {
			continue
		}
		nr := core.RunNode(s.pos, s.alive, eng.prop, eng.cfg.Alpha, u, grid)
		if eng.schedule != nil {
			nr.Neighbors = core.QuantizeNeighbors(nr.Neighbors, eng.schedule)
		}
		exec.Nodes[u] = nr
	}
	for u := range exec.Nodes {
		if !reflect.DeepEqual(s.nodes[u], exec.Nodes[u]) {
			t.Fatalf("node %d: session state %+v, fresh %+v", u, s.nodes[u], exec.Nodes[u])
		}
	}
	topo, err := core.BuildTopology(exec, eng.opts)
	if err != nil {
		t.Fatal(err)
	}
	gr := core.MaxPowerGraph(s.pos, eng.prop)
	for u, alive := range s.alive {
		if !alive {
			gr.IsolateNode(u)
		}
	}
	snap, err := s.snapshotLocked()
	if err != nil {
		t.Fatal(err)
	}
	requireResultsIdentical(t, newResultWithGR(s.pos, eng.model, topo, gr), snap)
}

// The ISSUE's acceptance test: a join→leave→move event stream converges
// to the same topology as a fresh Engine.Run on the final placement —
// here checked after every single event, for the basic algorithm and
// for the full optimization stack.
func TestSessionConvergesToFreshRun(t *testing.T) {
	stacks := []struct {
		name string
		opts []Option
	}{
		{"basic", []Option{WithMaxRadius(500)}},
		{"all-ops", []Option{WithMaxRadius(500), WithAllOptimizations()}},
		{"asym-2pi3", []Option{WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithAllOptimizations()}},
		{"quantized", []Option{WithMaxRadius(500), WithShrinkBack(), WithShrinkBackSchedule(1.5)}},
		{"shadowed", []Option{WithMaxRadius(500), WithShrinkBack(), WithShadowing(6, 3)}},
	}
	for _, st := range stacks {
		st := st
		t.Run(st.name, func(t *testing.T) {
			eng, err := New(st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(context.Background(), someNetwork(21, 40))
			if err != nil {
				t.Fatal(err)
			}
			requireSessionMatchesFreshRun(t, eng, sess)

			rng := workload.Rand(7)
			for step := 0; step < 18; step++ {
				switch step % 3 {
				case 0: // join somewhere in the region
					sess.Join(Pt(rng.Float64()*1500, rng.Float64()*1500))
				case 1: // leave a random live node
					ids, _ := sessionLiveMap(sess)
					if _, err := sess.Leave(ids[rng.IntN(len(ids))]); err != nil {
						t.Fatal(err)
					}
				case 2: // move a random live node, sometimes far away
					ids, _ := sessionLiveMap(sess)
					id := ids[rng.IntN(len(ids))]
					if _, err := sess.Move(id, Pt(rng.Float64()*1500, rng.Float64()*1500)); err != nil {
						t.Fatal(err)
					}
				}
				requireSessionMatchesFreshRun(t, eng, sess)
			}
		})
	}
}

// sessionGrowPowers returns every node's installed GrowPower p_{u,α}.
func sessionGrowPowers(s *Session) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.nodes))
	for u, nr := range s.nodes {
		out[u] = nr.GrowPower
	}
	return out
}

// beaconReaches is the repair rule: node u, installed at GrowPower grow,
// hears event node id at site q if q lies within reach of its beacon.
func beaconReaches(prop radio.Propagation, u, id int, pu, q Point, grow float64) bool {
	d := pu.Dist(q)
	if prop.DistancePure() {
		return d <= prop.RangeBound(grow)*(1+reachSlack)+reachSlack
	}
	return prop.LinkPower(u, id, d) <= grow*(1+reachSlack)+reachSlack
}

// requireRecomputedByBeacon pins the repair rule on one event of node id
// at the given sites: the non-event nodes it recomputed are exactly the
// live nodes within R of a site whose pre-event beacon (grow) reaches
// that site.
func requireRecomputedByBeacon(t *testing.T, s *Session, grow []float64, id int, sites []Point, recomputed []int) {
	t.Helper()
	prop := s.Engine().Propagation()
	got := make(map[int]bool, len(recomputed))
	for _, u := range recomputed {
		if u == id {
			continue
		}
		if u >= len(grow) || !s.Alive(u) {
			t.Fatalf("event node %d: recomputed node %d is not a live pre-event node", id, u)
		}
		got[u] = true
	}
	r := prop.MaxLinkRadius() * (1 + rangeSlack)
	for u := range grow {
		if u == id || !s.Alive(u) {
			continue
		}
		pu := s.Position(u)
		want := false
		for _, q := range sites {
			want = want || (pu.Dist(q) <= r && beaconReaches(prop, u, id, pu, q, grow[u]))
		}
		if want != got[u] {
			t.Fatalf("event node %d at %v: node %d at %v (GrowPower %v) recomputed=%v, beacon rule says %v",
				id, sites, u, pu, grow[u], got[u], want)
		}
	}
}

// TestSessionLargeNIncrementalIndex runs a long mixed event stream over
// a dense several-hundred-node session — the regime the incremental
// spatial index exists for — and checks the maintained fixed point
// against a fresh run at checkpoints, plus the exact locality rule:
// each event recomputes its own node and precisely the nodes whose
// pre-event beacon reaches one of its sites.
func TestSessionLargeNIncrementalIndex(t *testing.T) {
	const side = 3000.0
	eng, err := New(WithMaxRadius(500), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(31)
	sess, err := eng.NewSession(context.Background(), workload.Uniform(rng, 400, side, side))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 60; step++ {
		grow := sessionGrowPowers(sess)
		var rep EventReport
		var id int
		var sites []Point
		switch step % 4 {
		case 0:
			site := Pt(rng.Float64()*side, rng.Float64()*side)
			id, rep = sess.Join(site)
			sites = []Point{site}
		case 1:
			ids, _ := sessionLiveMap(sess)
			id = ids[rng.IntN(len(ids))]
			sites = []Point{sess.Position(id)}
			if rep, err = sess.Leave(id); err != nil {
				t.Fatal(err)
			}
		default:
			ids, _ := sessionLiveMap(sess)
			id = ids[rng.IntN(len(ids))]
			from := sess.Position(id)
			to := Pt(rng.Float64()*side, rng.Float64()*side)
			// A move is heard around both the old and the new position.
			sites = []Point{from, to}
			if rep, err = sess.Move(id, to); err != nil {
				t.Fatal(err)
			}
		}
		requireRecomputedByBeacon(t, sess, grow, id, sites, rep.Recomputed)
		if step%10 == 0 {
			requireSessionMatchesFreshRun(t, eng, sess)
		}
	}
	requireSessionMatchesFreshRun(t, eng, sess)
}

// TestSessionRepairAtBeaconReach puts event sites exactly at a node's
// beacon reach and a relative 1e-12 either side of it. Node 0's growing
// phase stops at a last group on a circle: six ring nodes at one
// distance under the power law, or at the distances that make their
// links need one power under shadowing. A site there is where the
// oracle's tie grouping decides whether a newcomer joins that group, so
// reachSlack must cover it. A Join there, a Move away and back, and a
// Leave must each leave the session equal to a fresh run on its ids. At
// 1+1e-6, well past the slack, node 0 must not be recomputed.
func TestSessionRepairAtBeaconReach(t *testing.T) {
	const ring = 200.0
	ctx := context.Background()
	for _, rc := range []struct {
		name string
		opts []Option
	}{
		{"power-law", []Option{WithMaxRadius(500)}},
		{"shadowed", []Option{WithMaxRadius(500), WithShadowing(6, 5)}},
	} {
		for _, scale := range []float64{1 - 1e-12, 1, 1 + 1e-12, 1 + 1e-6} {
			t.Run(fmt.Sprintf("%s/%v", rc.name, scale), func(t *testing.T) {
				eng, err := New(rc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				prop, nominal := eng.Propagation(), eng.RadioModel()
				// gain is the per-link factor over the nominal power law.
				gain := func(v int) float64 { return prop.LinkPower(0, v, 1) / nominal.PowerFor(1) }
				pts := []Point{Pt(0, 0)}
				for k := 1; k <= 6; k++ {
					d := nominal.RangeFor(nominal.PowerFor(ring) / gain(k))
					a := float64(k-1) * math.Pi / 3
					pts = append(pts, Pt(d*math.Cos(a), d*math.Sin(a)))
				}
				sess, err := eng.NewSession(ctx, pts)
				if err != nil {
					t.Fatal(err)
				}
				if nr := sess.nodes[0]; len(nr.Neighbors) != 6 || nr.Boundary {
					t.Fatalf("node 0 should stop at the six-node ring, got %+v", nr)
				}
				// site places event node id at scale × node 0's reach, on the
				// bisector between two ring nodes.
				site := func(id int) Point {
					grow := sessionGrowPowers(sess)[0]
					d := prop.RangeBound(grow) * scale
					if !prop.DistancePure() {
						d = nominal.RangeFor(grow * scale / gain(id))
					}
					return Pt(d*math.Cos(math.Pi/6), d*math.Sin(math.Pi/6))
				}
				check := func(step string, rep EventReport) {
					t.Helper()
					requireSessionMatchesKeyedRun(t, sess)
					if heard := slices.Contains(rep.Recomputed, 0); heard != (scale < 1+reachSlack) {
						t.Fatalf("%s: node 0 recomputed = %v at %v × its reach", step, heard, scale)
					}
				}
				id, rep := sess.Join(site(sess.Len()))
				check("join", rep)
				if rep, err = sess.Move(id, Pt(3000, 3000)); err != nil {
					t.Fatal(err)
				}
				check("move away", rep)
				if rep, err = sess.Move(id, site(id)); err != nil {
					t.Fatal(err)
				}
				check("move back", rep)
				if rep, err = sess.Leave(id); err != nil {
					t.Fatal(err)
				}
				check("leave", rep)
			})
		}
	}
}

// TestProtocolSessionKeepsUnreachedState drives a protocol-built session
// through drift moves, joins and leaves. An observer of an event (a node
// within R of a site) whose beacon reaches none of its sites keeps its
// protocol-built state bit for bit: discoveries, §4 state machine and
// pruned arcs. The topology preserves connectivity after every event.
func TestProtocolSessionKeepsUnreachedState(t *testing.T) {
	const side, drift = 1500.0, 125.0
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewProtocolSession(context.Background(), someNetwork(41, 80), SimOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	requireConnected := func(step int) {
		t.Helper()
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !snap.PreservesConnectivity() {
			t.Fatalf("step %d: connectivity not preserved", step)
		}
	}
	requireConnected(-1)

	type installed struct {
		nr     core.NodeResult
		rec    *core.Reconfigurator
		table  []core.Discovery
		pruned []core.Discovery
	}
	prop := eng.Propagation()
	rng := workload.Rand(13)
	kept := 0
	for step := 0; step < 60; step++ {
		ids, _ := sessionLiveMap(sess)
		var ev Event
		var sites []Point
		switch step % 6 {
		case 4:
			ev = JoinEvent(Pt(rng.Float64()*side, rng.Float64()*side))
			ev.ID = sess.Len()
			sites = []Point{ev.Pos}
		case 5:
			ev = LeaveEvent(ids[rng.IntN(len(ids))])
			sites = []Point{sess.Position(ev.ID)}
		default:
			id := ids[rng.IntN(len(ids))]
			from := sess.Position(id)
			ev = MoveEvent(id, Pt(from.X+(2*rng.Float64()-1)*drift, from.Y+(2*rng.Float64()-1)*drift))
			sites = []Point{from, ev.Pos}
		}

		grow := sessionGrowPowers(sess)
		before := map[int]installed{}
		sess.mu.Lock()
		for _, u := range ids {
			if u == ev.ID {
				continue
			}
			pu, heard, reached := sess.pos[u], false, false
			for _, q := range sites {
				heard = heard || pu.Dist(q) <= prop.MaxLinkRadius()
				reached = reached || beaconReaches(prop, u, ev.ID, pu, q, grow[u])
			}
			if heard && !reached {
				nr := sess.nodes[u]
				nr.Neighbors = slices.Clone(nr.Neighbors)
				before[u] = installed{nr, sess.recs[u], sess.recs[u].Neighbors(), slices.Clone(sess.pruned[u])}
			}
		}
		sess.mu.Unlock()

		rep, err := sess.ApplyBatch([]Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		for u, b := range before {
			if slices.Contains(rep.Recomputed, u) {
				t.Fatalf("step %d (%v): node %d recomputed though no site reaches its beacon", step, ev.Kind, u)
			}
			now := installed{sess.nodes[u], sess.recs[u], sess.recs[u].Neighbors(), sess.pruned[u]}
			// The state machine must be the same object holding the same
			// table: neither replaced nor mutated in place.
			if now.rec != b.rec || !reflect.DeepEqual(now, b) {
				t.Fatalf("step %d (%v): node %d state changed:\n%+v\n%+v", step, ev.Kind, u, b, now)
			}
		}
		sess.mu.Unlock()
		kept += len(before)
		requireConnected(step)
	}
	if kept == 0 {
		t.Fatal("no event left an observer beyond its beacon's reach")
	}
}

// Replaying cmd/dynsim's built-in crash/move/add demo through the public
// Session API must preserve connectivity at every checkpoint (the §4
// guarantee at the oracle fixed point).
func TestSessionReplaysDynsimDemo(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Point{Pt(0, 0), Pt(300, 0), Pt(600, 0), Pt(900, 0), Pt(1200, 0)}
	sess, err := eng.NewSession(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, wantComponents int) {
		t.Helper()
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !snap.PreservesConnectivity() {
			t.Fatalf("%s: connectivity not preserved", label)
		}
		if got := snap.Components(); got != wantComponents {
			t.Errorf("%s: components = %d, want %d", label, got, wantComponents)
		}
	}

	check("steady state", 1)

	// The bridge node crashes: the chain splits, isolated crash slot
	// included the partition must still match G_R.
	if _, err := sess.Leave(2); err != nil {
		t.Fatal(err)
	}
	check("after bridge crash", 3) // {0,1}, {3,4}, {2 departed}

	// A replacement joins just off the old bridge position.
	if id, _ := sess.Join(Pt(600, 40)); id != 5 {
		t.Fatalf("replacement got id %d, want 5", id)
	}
	check("after replacement joins", 2) // {0,1,3,4,5}, {2 departed}

	// Move the replacement onto the exact bridge position.
	if _, err := sess.Move(5, Pt(600, 0)); err != nil {
		t.Fatal(err)
	}
	check("after replacement settles", 2)

	requireSessionMatchesFreshRun(t, eng, sess)

	st := sess.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.Moves != 1 {
		t.Errorf("stats = %+v, want 1 join / 1 leave / 1 move", st)
	}
	if st.Regrows == 0 {
		t.Errorf("crashing the only bridge must force at least one regrow, stats = %+v", st)
	}
}

func TestSessionEventErrors(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Leave(99); !errors.Is(err, ErrBadEvent) {
		t.Errorf("leave of unknown node = %v, want ErrBadEvent", err)
	}
	if _, err := sess.Leave(4); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Leave(4); !errors.Is(err, ErrBadEvent) {
		t.Errorf("double leave = %v, want ErrBadEvent", err)
	}
	if _, err := sess.Move(4, Pt(0, 0)); !errors.Is(err, ErrBadEvent) {
		t.Errorf("move of departed node = %v, want ErrBadEvent", err)
	}
	if sess.Alive(4) {
		t.Errorf("node 4 still alive after leave")
	}
	if sess.LiveCount() != 9 {
		t.Errorf("live count = %d, want 9", sess.LiveCount())
	}
}

// Sessions serialize events internally; concurrent readers and writers
// must be race-free (exercised under -race in CI).
func TestSessionConcurrentUse(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(5, 30))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sess.Join(Pt(float64(100*g+i), float64(50*g)))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sess.Snapshot(); err != nil {
					t.Error(err)
					return
				}
				sess.Stats()
				sess.LiveCount()
			}
		}()
	}
	wg.Wait()
	requireSessionMatchesFreshRun(t, eng, sess)
}
