package cbtc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"cbtc/internal/codec"
	"cbtc/internal/core"
	"cbtc/internal/workload"
)

// checkpointStacks are the option stacks the durability layer is gated
// on: the basic algorithm, shrink-back, the pairwise stacks, the
// asymmetric-removal regime, tag quantization, the shadowed radio (whose
// fresh-run comparison keeps the session's ids) with and without
// pairwise removal, and a battery model. Every checkpoint carries node
// rows only, and restore rebuilds the topology from them on one path.
var checkpointStacks = []struct {
	name string
	opts []Option
}{
	{"basic", []Option{WithMaxRadius(500)}},
	{"shrink-back", []Option{WithMaxRadius(500), WithShrinkBack()}},
	{"all-ops", []Option{WithMaxRadius(500), WithAllOptimizations()}},
	{"remove-all", []Option{WithMaxRadius(500), WithShrinkBack(), WithPairwiseRemoval(PairwiseRemoveAll)}},
	{"asym-2pi3", []Option{WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithShrinkBack(), WithAsymmetricRemoval()}},
	{"quantized", []Option{WithMaxRadius(500), WithShrinkBack(), WithShrinkBackSchedule(1.5)}},
	{"shadowed", []Option{WithMaxRadius(500), WithShadowing(4, 3), WithShrinkBack()}},
	{"shadowed-all-ops", []Option{WithMaxRadius(500), WithShadowing(4, 3), WithAllOptimizations()}},
	{"battery", []Option{WithMaxRadius(500), WithShrinkBack(), WithBattery(1e9, 1)}},
}

// requireSessionsIdentical asserts two sessions expose identical state:
// same snapshot graphs (G and the ground-truth G_R), radii, powers,
// liveness, statistics — and identical maintained internal state, the
// pruned rows (N_α) and the pre-pairwise graph included.
func requireSessionsIdentical(t *testing.T, a, b *Session) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("id space %d != %d", a.Len(), b.Len())
	}
	for id := 0; id < a.Len(); id++ {
		if a.Alive(id) != b.Alive(id) {
			t.Fatalf("node %d liveness %v != %v", id, a.Alive(id), b.Alive(id))
		}
		if a.Position(id) != b.Position(id) {
			t.Fatalf("node %d position %v != %v", id, a.Position(id), b.Position(id))
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v != %+v", a.Stats(), b.Stats())
	}
	if len(a.pruned) != len(b.pruned) {
		t.Fatalf("pruned rows for %d and %d nodes", len(a.pruned), len(b.pruned))
	}
	for u := range a.pruned {
		if !slices.Equal(a.pruned[u], b.pruned[u]) {
			t.Fatalf("node %d's pruned row (its N_α arcs) differs", u)
		}
	}
	if !a.gpre.Equal(b.gpre) {
		t.Fatal("maintained pre-pairwise graph differs")
	}
	if !a.g.Equal(b.g) {
		t.Fatal("maintained G differs")
	}
	if !a.gr.Equal(b.gr) {
		t.Fatal("maintained G_R differs")
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sa.G.Equal(sb.G) {
		t.Fatal("snapshot G differs")
	}
	if !sa.GR.Equal(sb.GR) {
		t.Fatal("snapshot G_R differs")
	}
	if !reflect.DeepEqual(sa.Radii, sb.Radii) || !reflect.DeepEqual(sa.Powers, sb.Powers) {
		t.Fatal("snapshot radii/powers differ")
	}
	if !reflect.DeepEqual(sa.Boundary, sb.Boundary) {
		t.Fatal("snapshot boundary flags differ")
	}
}

// TestSessionCheckpointRoundTrip is the tentpole gate: across every
// option stack, a session that has seen a random event history
// checkpoints, restores edge-identically (including G_R), still matches
// a fresh run, and then evolves byte-identically to the original under
// the same continued event stream.
func TestSessionCheckpointRoundTrip(t *testing.T) {
	for _, st := range checkpointStacks {
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
			rng := workload.Rand(97)
			for step := 0; step < 6; step++ {
				if _, err := sess.ApplyBatch(randomBatch(rng, sess, 4, 1500)); err != nil {
					t.Fatal(err)
				}
			}

			var buf bytes.Buffer
			if err := sess.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := eng.RestoreSession(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			requireSessionsIdentical(t, sess, restored)
			requireSessionMatchesFreshRun(t, eng, restored)

			// Continue both copies under the identical event stream: every
			// tick must produce byte-identical reports and observations.
			for step := 0; step < 6; step++ {
				batch := randomBatch(rng, sess, 4, 1500)
				repA, tsA, errA := sess.Tick(batch)
				repB, tsB, errB := restored.Tick(batch)
				if errA != nil || errB != nil {
					t.Fatalf("tick %d: %v / %v", step, errA, errB)
				}
				if !reflect.DeepEqual(repA, repB) {
					t.Fatalf("tick %d: reports diverge:\n%+v\n%+v", step, repA, repB)
				}
				if tsA != tsB {
					t.Fatalf("tick %d: observations diverge: %+v != %+v", step, tsA, tsB)
				}
			}
			requireSessionsIdentical(t, sess, restored)
			requireSessionMatchesFreshRun(t, eng, restored)
		})
	}
}

// TestSessionCheckpointConcurrent checkpoints a session while another
// goroutine keeps applying events. Every checkpoint must decode into a
// consistent session that matches a fresh run over its own live
// placement — the COW-snapshot contract of Checkpoint (and, under
// -race, proof that encoding off-lock shares no mutable state).
func TestSessionCheckpointConcurrent(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(3, 60))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := workload.Rand(5)
		for i := 0; i < 40; i++ {
			if _, err := sess.ApplyBatch(randomBatch(rng, sess, 4, 1500)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := sess.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := eng.RestoreSession(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		requireSessionMatchesFreshRun(t, eng, restored)
	}
	<-done
}

// TestCheckpointConfigMismatch: restoring under any different engine
// configuration is refused with ErrConfigMismatch, for sessions and
// fleets alike.
func TestCheckpointConfigMismatch(t *testing.T) {
	engA, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	others := [][]Option{
		{WithMaxRadius(500)},                                                // different stack
		{WithMaxRadius(400), WithShrinkBack()},                              // different radius
		{WithMaxRadius(500), WithShrinkBack(), WithAlpha(2.0)},              // different α
		{WithMaxRadius(500), WithShrinkBack(), WithPathLoss(4)},             // different model
		{WithMaxRadius(500), WithShrinkBack(), WithShrinkBackSchedule(1.5)}, // quantized
		{WithMaxRadius(500), WithShrinkBack(), WithShadowing(4, 1)},         // shadowed radio
		{WithMaxRadius(500), WithShrinkBack(), WithBattery(1e9, 1)},         // battery
	}

	sess, err := engA.NewSession(context.Background(), someNetwork(9, 30))
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sess.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	fleet, err := engA.NewFleet(context.Background(), FleetConfig{Members: oracleMembers([][]Point{someNetwork(9, 20), someNetwork(10, 20)}), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	if err := fleet.Checkpoint(&fbuf); err != nil {
		t.Fatal(err)
	}

	for i, opts := range others {
		engB, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engB.RestoreSession(bytes.NewReader(sbuf.Bytes())); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("engine %d session restore: got %v, want ErrConfigMismatch", i, err)
		}
		if _, err := engB.RestoreFleet(bytes.NewReader(fbuf.Bytes())); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("engine %d fleet restore: got %v, want ErrConfigMismatch", i, err)
		}
	}
	// The producing engine itself restores fine.
	if _, err := engA.RestoreSession(bytes.NewReader(sbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := engA.RestoreFleet(bytes.NewReader(fbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreErrorPaths: hostile and mangled inputs yield the typed
// public errors, never a panic.
func TestRestoreErrorPaths(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(2, 25))
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sess.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	fleet, err := eng.NewFleet(context.Background(), FleetConfig{Members: oracleMembers([][]Point{someNetwork(4, 15)}), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	if err := fleet.Checkpoint(&fbuf); err != nil {
		t.Fatal(err)
	}

	if _, err := eng.RestoreSession(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, ErrNotCheckpoint) {
		t.Errorf("garbage: got %v, want ErrNotCheckpoint", err)
	}
	verFlip := bytes.Clone(sbuf.Bytes())
	verFlip[4] ^= 0xff
	if _, err := eng.RestoreSession(bytes.NewReader(verFlip)); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("version flip: got %v, want ErrCheckpointVersion", err)
	}
	if _, err := eng.RestoreSession(bytes.NewReader(fbuf.Bytes())); !errors.Is(err, ErrCheckpointKind) {
		t.Errorf("fleet into RestoreSession: got %v, want ErrCheckpointKind", err)
	}
	if _, err := eng.RestoreFleet(bytes.NewReader(sbuf.Bytes())); !errors.Is(err, ErrCheckpointKind) {
		t.Errorf("session into RestoreFleet: got %v, want ErrCheckpointKind", err)
	}
	// Every strict prefix of a valid checkpoint is truncated input.
	for _, cut := range []int{7, 16, sbuf.Len() / 2, sbuf.Len() - 1} {
		if _, err := eng.RestoreSession(bytes.NewReader(sbuf.Bytes()[:cut])); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("truncated at %d: got %v, want ErrCheckpointCorrupt", cut, err)
		}
	}
	for _, cut := range []int{7, fbuf.Len() / 2, fbuf.Len() - 1} {
		if _, err := eng.RestoreFleet(bytes.NewReader(fbuf.Bytes()[:cut])); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("fleet truncated at %d: got %v, want ErrCheckpointCorrupt", cut, err)
		}
	}

	// No option expresses a non-unit reference loss: a session carrying
	// one matches no engine, and a fleet member carrying one cannot be
	// rebuilt from its fingerprint.
	st, err := codec.DecodeSession(bytes.NewReader(sbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st.Config.RefLoss = 2
	var refLoss bytes.Buffer
	if err := codec.EncodeSession(&refLoss, st); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RestoreSession(&refLoss); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("session with reference loss 2: got %v, want ErrConfigMismatch", err)
	}
	fst, err := codec.DecodeFleet(bytes.NewReader(fbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fst.Nets[0].Config.RefLoss = 2
	refLoss.Reset()
	if err := codec.EncodeFleet(&refLoss, fst); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RestoreFleet(&refLoss); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("fleet member with reference loss 2: got %v, want ErrCheckpointCorrupt", err)
	}

	// Restore rebuilds the topology from the node rows on every stack: a
	// departed node with neighbors, a row naming a departed neighbor, a
	// row naming a neighbor twice, or a row naming a node its beacon
	// cannot discover must be refused rather than rebuilt.
	for _, stack := range []struct {
		name string
		opts []Option
	}{
		{"shrink-back", []Option{WithMaxRadius(500), WithShrinkBack()}},
		{"all-ops", []Option{WithMaxRadius(500), WithAllOptimizations()}},
	} {
		eng, err := New(stack.opts...)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession(context.Background(), someNetwork(2, 25))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Leave(3); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		mangles := map[string]func(st *codec.SessionState){
			"departed row":       func(st *codec.SessionState) { st.Nodes[3].Neighbors = st.Nodes[4].Neighbors },
			"departed neighbor":  func(st *codec.SessionState) { st.Nodes[4].Neighbors[0].ID = 3 },
			"duplicate neighbor": func(st *codec.SessionState) { st.Nodes[4].Neighbors[1] = st.Nodes[4].Neighbors[0] },
		}
		for _, plant := range rowPlants {
			mangles[plant.name] = func(st *codec.SessionState) { plantRow(t, eng, st, plant) }
		}
		for name, mangle := range mangles {
			st, err := codec.DecodeSession(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Nodes[4].Neighbors) < 2 {
				t.Fatalf("%s: node 4 needs two neighbors", stack.name)
			}
			mangle(st)
			var mangled bytes.Buffer
			if err := codec.EncodeSession(&mangled, st); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RestoreSession(&mangled); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Errorf("%s checkpoint with a %s: got %v, want ErrCheckpointCorrupt", stack.name, name, err)
			}
		}
	}
}

// rowPlant names node pairs (u, v) at distance d whose arc u→v no
// beacon of u discovers, for plantRow to plant one. Restore must refuse
// a row holding such an arc.
type rowPlant struct {
	name string
	pick func(eng *Engine, u core.NodeResult, d float64) bool
	// reach raises u's GrowPower until its beacon reaches v, so that
	// only the max-power link rule refuses the arc.
	reach bool
}

// rowPlants are the two arcs restore refuses: to a live node beyond
// maximum range, outside G_R, from a node whose GrowPower was raised to
// reach it; and to a G_R neighbor beyond the reach of the node's
// GrowPower.
var rowPlants = []rowPlant{
	{"row outside G_R", func(eng *Engine, _ core.NodeResult, d float64) bool {
		return d > 1.01*eng.model.MaxRadius
	}, true},
	{"row beyond GrowPower", func(eng *Engine, u core.NodeResult, d float64) bool {
		return !u.Boundary && d < 0.99*eng.model.MaxRadius && d > 1.01*eng.model.RangeFor(u.GrowPower)
	}, false},
}

// plantRow plants p's arc in the row of the first live node u of st
// with a live node v that p picks, and fails the test if there is no
// such pair.
func plantRow(t testing.TB, eng *Engine, st *codec.SessionState, p rowPlant) {
	t.Helper()
	for u, alive := range st.Alive {
		for v := range st.Alive {
			d := st.Pos[u].Dist(st.Pos[v])
			if !alive || !st.Alive[v] || v == u || !p.pick(eng, st.Nodes[u], d) {
				continue
			}
			plantArc(eng, st, u, v)
			if p.reach {
				st.Nodes[u].GrowPower = 2 * eng.prop.LinkPower(u, v, d)
			}
			return
		}
	}
	t.Fatal("no node pair to plant the arc on")
}

// TestProtocolSessionRowsValidate: a protocol node discovers only nodes
// its own beacon reaches, at most at maximum power, so every row of a
// protocol-built session passes the check restore makes
// (validateNodeRows), and its checkpoint restores to an identical
// session. It runs every stack under lossy, duplicating, jittered and
// noisy channels and a slow power schedule.
func TestProtocolSessionRowsValidate(t *testing.T) {
	stacks := []struct {
		name string
		opts []Option
	}{
		{"basic", nil},
		{"shrink-back", []Option{WithShrinkBack()}},
		{"all-ops-2pi3", []Option{WithAlpha(AlphaAsymmetric), WithAllOptimizations()}},
		{"sigma-4dB", []Option{WithShrinkBack(), WithShadowing(4, 11)}},
		{"sigma-8dB", []Option{WithAllOptimizations(), WithShadowing(8, 12)}},
		{"path-loss-4", []Option{WithShrinkBack(), WithPathLoss(4)}},
		{"alpha-pi", []Option{WithAlpha(math.Pi)}},
	}
	sims := []SimOptions{
		{},
		{DropProb: 0.3, DupProb: 0.2},
		{Latency: 2, Jitter: 1.5},
		{AoANoise: 0.08},
		{IncreaseFactor: 1.3, InitialPower: 1e-3},
	}
	ctx := context.Background()
	for _, stack := range stacks {
		eng, err := New(append([]Option{WithMaxRadius(300)}, stack.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for k, sim := range sims {
			if sim.InitialPower != 0 {
				sim.InitialPower *= eng.model.MaxPower()
			}
			for seed := uint64(1); seed <= 8; seed++ {
				sim.Seed = seed
				pos := workload.Uniform(workload.Rand(seed*8+uint64(k)), 40, 1200, 1200)
				s, err := eng.NewProtocolSession(ctx, pos, sim)
				if err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				err = eng.validateNodeRows(s.exportLocked())
				s.mu.Unlock()
				if err != nil {
					t.Fatalf("%s, sim %+v: %v", stack.name, sim, err)
				}
				var buf bytes.Buffer
				if err := s.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				r, err := eng.RestoreSession(&buf)
				if err != nil {
					t.Fatalf("%s, sim %+v: %v", stack.name, sim, err)
				}
				requireSessionsIdentical(t, s, r)
			}
		}
	}
}

// TestRestoreFleetLowestIndexError: a checkpoint with several corrupt
// members reports the lowest-index one, at every worker count. Restore
// checks every member in index order before it builds any on the shard
// pool, so the report must not depend on which member is large or where
// its bad row lies: member 2 is the large one, with its corrupt row near
// its end, and members 3 and 5 are corrupt too.
func TestRestoreFleetLowestIndexError(t *testing.T) {
	base, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	placements := make([][]Point, 6)
	for i := range placements {
		placements[i] = someNetwork(uint64(30+i), 25)
	}
	placements[2] = workload.Uniform(workload.Rand(32), 3000, 6000, 6000)
	fleet, err := base.NewFleet(context.Background(), FleetConfig{Members: oracleMembers(placements), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fleet.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := codec.DecodeFleet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3, 5} { // a duplicate neighbor in the last row with two
		nodes := st.Nets[i].Session.Nodes
		u := len(nodes) - 1
		for len(nodes[u].Neighbors) < 2 {
			u--
		}
		nodes[u].Neighbors[1] = nodes[u].Neighbors[0]
	}
	buf.Reset()
	if err := codec.EncodeFleet(&buf, st); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 6} {
		eng, err := New(WithMaxRadius(500), WithShrinkBack(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			_, err := eng.RestoreFleet(bytes.NewReader(buf.Bytes()))
			if !errors.Is(err, ErrCheckpointCorrupt) || !strings.HasPrefix(err.Error(), "network 2:") {
				t.Fatalf("workers %d: got %v, want network 2's ErrCheckpointCorrupt", workers, err)
			}
		}
	}
}

// TestFleetCheckpointRoundTrip is the fleet-level acceptance gate: a
// fleet checkpointed mid-run restores to an identical report, and —
// restored at several worker counts — continues to byte-identical
// reports versus the uninterrupted original.
func TestFleetCheckpointRoundTrip(t *testing.T) {
	sc := workload.Fleet(3, 50, "uniform")
	tick := DriftTick(TickProfile{
		Moves: sc.Moves, Jitter: sc.Jitter,
		JoinProb: sc.JoinProb, LeaveProb: sc.LeaveProb,
		Width: sc.Side, Height: sc.Side,
	})
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := eng.NewFleet(context.Background(), FleetConfig{Members: oracleMembers(sc.Placements(11)), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(context.Background(), 5, tick); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := fleet.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	repAtCkpt, err := fleet.Report()
	if err != nil {
		t.Fatal(err)
	}
	// The uninterrupted reference: the original fleet keeps running.
	refRep, err := fleet.Run(context.Background(), 5, tick)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduling telemetry measures wall clock and is not carried by
	// checkpoints; everything else must round-trip exactly.
	zeroSched(repAtCkpt)
	zeroSched(refRep)

	for _, w := range []int{0, 1, 3} {
		engW, err := New(WithMaxRadius(sc.Radius), WithShrinkBack(), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := engW.RestoreFleet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rep0, err := restored.Report()
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(rep0)
		if !reflect.DeepEqual(rep0, repAtCkpt) {
			t.Fatalf("workers=%d: restored report differs from checkpoint-time report", w)
		}
		rep, err := restored.Run(context.Background(), 5, tick)
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(rep)
		if !reflect.DeepEqual(rep, refRep) {
			t.Fatalf("workers=%d: continued report diverges from uninterrupted run", w)
		}
	}
}

// TestFleetRaggedCheckpointResume pins the determinism invariant across
// the full heterogeneity surface: a mixed oracle+protocol fleet with
// per-member option stacks and tick weights, checkpointed at RAGGED
// per-member clocks (a cancelled run leaves members mid-catch-up),
// restores and continues byte-identically at workers 1, 2 and 8.
func TestFleetRaggedCheckpointResume(t *testing.T) {
	const seed = 41
	ctx := context.Background()
	members := mixedMembers(t, seed)
	sc := workload.Fleet(len(members), 40, "uniform")
	tick := fleetTick(sc)
	eng := fleetEngine(t)

	fleet, err := eng.NewFleet(ctx, FleetConfig{Members: members, Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel partway through the rounds so the clocks freeze at ragged,
	// target-lagging positions.
	cancelCtx, cancel := context.WithCancel(ctx)
	var calls atomic.Int32
	interrupting := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		if calls.Add(1) == 10 {
			cancel()
		}
		return tick(net, tk, rng, s)
	}
	if err := fleet.Advance(cancelCtx, 3, interrupting); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Advance error = %v, want context.Canceled", err)
	}
	wm := fleet.Watermarks()
	ragged := false
	for _, c := range wm.Members {
		if c.Ticks < c.Target {
			ragged = true
		}
	}
	if !ragged {
		t.Fatal("cancellation left no member behind its target; checkpoint would not be ragged")
	}

	var buf bytes.Buffer
	if err := fleet.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// The uninterrupted reference: the original fleet finishes the
	// remainder plus one more round.
	refRep, err := fleet.Run(ctx, 1, tick)
	if err != nil {
		t.Fatal(err)
	}
	zeroSched(refRep)

	for _, w := range []int{1, 2, 8} {
		engW := fleetEngine(t, WithWorkers(w))
		restored, err := engW.RestoreFleet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rwm := restored.Watermarks()
		if !reflect.DeepEqual(rwm, wm) {
			t.Fatalf("workers=%d: restored watermarks %+v != checkpointed %+v", w, rwm, wm)
		}
		rep, err := restored.Run(ctx, 1, tick)
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(rep)
		if !reflect.DeepEqual(rep, refRep) {
			t.Fatalf("workers=%d: resumed report diverges from uninterrupted run", w)
		}
		for i := 0; i < restored.Size(); i++ {
			want, err := fleet.Session(i).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Session(i).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !got.G.Equal(want.G) || !got.GR.Equal(want.GR) {
				t.Errorf("workers=%d network %d: resumed topology differs", w, i)
			}
		}
	}
}

// TestFleetTickEvents covers the external-ingestion tick: equivalence
// with a Run over the same event schedule, all-or-nothing validation,
// and the batch-count contract.
func TestFleetTickEvents(t *testing.T) {
	placements := [][]Point{someNetwork(31, 30), someNetwork(32, 30)}
	newFleet := func() *Fleet {
		eng, err := New(WithMaxRadius(500), WithShrinkBack())
		if err != nil {
			t.Fatal(err)
		}
		f, err := eng.NewFleet(context.Background(), FleetConfig{Members: oracleMembers(placements), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// A fixed three-tick schedule touching stable ids only. A nil slot
	// skips its member entirely (the clock stands still); an explicit
	// empty batch is a tick with no events.
	schedule := [][][]Event{
		{{JoinEvent(Pt(100, 100))}, {MoveEvent(2, Pt(40, 40))}},
		{{LeaveEvent(0), MoveEvent(3, Pt(700, 700))}, {}},
		{nil, {LeaveEvent(1), JoinEvent(Pt(900, 120))}},
	}

	viaEvents := newFleet()
	for _, batches := range schedule {
		if err := viaEvents.TickEvents(context.Background(), batches); err != nil {
			t.Fatal(err)
		}
	}
	// The skipped slots make the clocks ragged: member 0 ticked twice,
	// member 1 three times.
	wm := viaEvents.Watermarks()
	if wm.Ticks.Min != 2 || wm.Ticks.Max != 3 || wm.Members[0].Ticks != 2 {
		t.Fatalf("ragged watermarks = %+v, want member 0 at 2, member 1 at 3", wm)
	}

	// Per member, the same tick sequence via Run (with the skipped slots
	// removed) must produce the identical report slice.
	perNet := [][][]Event{
		{schedule[0][0], schedule[1][0]},
		{schedule[0][1], schedule[1][1], schedule[2][1]},
	}
	repEvents, err := viaEvents.Report()
	if err != nil {
		t.Fatal(err)
	}
	for net := range placements {
		single, err := newFleet().eng.NewFleet(context.Background(), FleetConfig{
			Members: []MemberSpec{{Placement: placements[net]}},
			Seed:    5,
		})
		if err != nil {
			t.Fatal(err)
		}
		repRun, err := single.Run(context.Background(), len(perNet[net]), func(_, tick int, _ *rand.Rand, _ *Session) []Event {
			return perNet[net][tick]
		})
		if err != nil {
			t.Fatal(err)
		}
		got, want := repEvents.PerNetwork[net], repRun.PerNetwork[0]
		got.Net, got.Sched = 0, MemberSchedStats{}
		want.Sched = MemberSchedStats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("network %d: TickEvents slice diverges from Run:\n%+v\n%+v", net, got, want)
		}
	}

	// Validation is all-or-nothing across the whole fleet.
	before, err := viaEvents.Report()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Event{{LeaveEvent(10_000)}, {JoinEvent(Pt(1, 1))}}
	if err := viaEvents.TickEvents(context.Background(), bad); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("invalid batch: got %v, want ErrBadEvent", err)
	}
	after, err := viaEvents.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("rejected tick mutated the fleet")
	}
	if err := viaEvents.TickEvents(context.Background(), [][]Event{nil}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("batch-count mismatch: got %v, want ErrBadEvent", err)
	}
}
