package cbtc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cbtc/internal/codec"
	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// requireResultsIdentical asserts two Results are byte-identical in
// every deterministic field — graphs, radii, powers, boundary flags and
// the Table 1 aggregates.
func requireResultsIdentical(t *testing.T, want, got *Result) {
	t.Helper()
	if !got.G.Equal(want.G) {
		t.Fatal("G differs")
	}
	if !got.GR.Equal(want.GR) {
		t.Fatal("GR differs")
	}
	if !reflect.DeepEqual(got.Pos, want.Pos) {
		t.Fatal("positions differ")
	}
	if !reflect.DeepEqual(got.Radii, want.Radii) || !reflect.DeepEqual(got.Powers, want.Powers) {
		t.Fatal("radii/powers differ")
	}
	if !reflect.DeepEqual(got.Boundary, want.Boundary) {
		t.Fatal("boundary flags differ")
	}
	if got.AvgDegree != want.AvgDegree || got.AvgRadius != want.AvgRadius {
		t.Fatalf("aggregates differ: (%v, %v) != (%v, %v)",
			got.AvgDegree, got.AvgRadius, want.AvgDegree, want.AvgRadius)
	}
}

// TestShadowingDeterminism pins the log-distance model's two contracts:
// the per-link shadowing realization is a pure function of (seed, u, v)
// — so runs and whole session histories are byte-identical at every
// worker count — and a nonzero sigma actually perturbs the realized
// topology away from the nominal power law.
func TestShadowingDeterminism(t *testing.T) {
	nodes := someNetwork(31, 60)
	ctx := context.Background()
	shadowOpts := func(extra ...Option) []Option {
		return append([]Option{WithMaxRadius(500), WithShrinkBack(), WithShadowing(8, 42)}, extra...)
	}

	var want *Result
	var wantSess *Session
	for _, workers := range []int{1, 2, 8} {
		eng, err := New(shadowOpts(WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(ctx, nodes)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession(ctx, nodes)
		if err != nil {
			t.Fatal(err)
		}
		rng := workload.Rand(7)
		for step := 0; step < 6; step++ {
			if _, err := sess.ApplyBatch(randomBatch(rng, sess, 4, 1500)); err != nil {
				t.Fatal(err)
			}
		}
		if workers == 1 {
			want, wantSess = res, sess
			continue
		}
		requireResultsIdentical(t, want, res)
		requireSessionsIdentical(t, wantSess, sess)
	}

	// Sanity: 8 dB of shadowing must change the realized link set
	// relative to the nominal power law on a paper-density placement.
	plainEng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainEng.Run(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GR.Equal(want.GR) && plain.G.Equal(want.G) {
		t.Fatal("shadowed run realized the exact nominal topology; shadowing had no effect")
	}
	// A different seed is a different radio environment.
	reseeded, err := New(WithMaxRadius(500), WithShrinkBack(), WithShadowing(8, 43))
	if err != nil {
		t.Fatal(err)
	}
	other, err := reseeded.Run(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if other.GR.Equal(want.GR) && other.G.Equal(want.G) {
		t.Fatal("different shadowing seeds realized identical topologies")
	}
}

// TestV2CannotCarryEnergyState: the version-2 format has no room for
// shadowed radios, non-unit reference losses or battery vectors, and a
// checkpoint of such a session labelled version 2 fails with the typed
// version error. The current version carries them, and only the
// producing engine restores them; no option expresses a non-unit
// reference loss, so no engine restores that one.
func TestV2CannotCarryEnergyState(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		opts    []Option
		refLoss float64 // patched into the checkpoint when non-zero
		own     error   // restoring onto the producing engine
	}{
		{"shadowed", []Option{WithMaxRadius(500), WithShadowing(4, 1)}, 0, nil},
		{"battery", []Option{WithMaxRadius(500), WithBattery(1e9, 1)}, 0, nil},
		{"ref-loss", []Option{WithMaxRadius(500)}, 2, ErrConfigMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(ctx, someNetwork(4, 20))
			if err != nil {
				t.Fatal(err)
			}
			var v3 bytes.Buffer
			if err := sess.Checkpoint(&v3); err != nil {
				t.Fatal(err)
			}
			if tc.refLoss != 0 {
				st, err := codec.DecodeSession(bytes.NewReader(v3.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				st.Config.RefLoss = tc.refLoss
				v3.Reset()
				if err := codec.EncodeSession(&v3, st); err != nil {
					t.Fatal(err)
				}
			}
			v2 := bytes.Clone(v3.Bytes())
			v2[4] = 2
			if _, err := eng.RestoreSession(bytes.NewReader(v2)); !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("v2 restore: got %v, want ErrCheckpointVersion", err)
			}
			if _, err := eng.RestoreSession(bytes.NewReader(v3.Bytes())); !errors.Is(err, tc.own) {
				t.Fatalf("restore onto producing engine: got %v, want %v", err, tc.own)
			}
			plain, err := New(WithMaxRadius(500))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := plain.RestoreSession(bytes.NewReader(v3.Bytes())); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("restore onto plain engine: got %v, want ErrConfigMismatch", err)
			}
		})
	}
}

// TestEnergyCheckpointRoundTrip: a session carrying the full PR 10 state
// — shadowed radio plus partially drained batteries — checkpoints and
// restores byte-identically, including the residual-battery vector and
// every subsequent drained observation.
func TestEnergyCheckpointRoundTrip(t *testing.T) {
	m := radio.Default(500)
	cap := 40 * m.MaxPower() // a few dozen max-power ticks
	eng, err := New(WithMaxRadius(500), WithShrinkBack(), WithShadowing(4, 11), WithBattery(cap, 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(23, 40))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(29)
	for step := 0; step < 5; step++ {
		if _, _, err := sess.Tick(randomBatch(rng, sess, 3, 1500)); err != nil {
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
	for id := 0; id < sess.Len(); id++ {
		if a, b := sess.Residual(id), restored.Residual(id); a != b {
			t.Fatalf("node %d residual %v != %v after restore", id, b, a)
		}
	}
	for step := 0; step < 5; step++ {
		batch := randomBatch(rng, sess, 3, 1500)
		repA, tsA, errA := sess.Tick(batch)
		repB, tsB, errB := restored.Tick(batch)
		if errA != nil || errB != nil {
			t.Fatalf("tick %d: %v / %v", step, errA, errB)
		}
		if !reflect.DeepEqual(repA, repB) || tsA != tsB {
			t.Fatalf("tick %d: drained observations diverge: %+v != %+v", step, tsB, tsA)
		}
	}
}

// TestBatteryPairwise: a battery engine with every optimization drains
// each live node by drain × p(radius) over the pairwise-pruned topology.
// Its checkpoint carries node rows only, as for every pairwise stack, so
// restore rebuilds the topology and adopts the battery vector; the
// restored session re-encodes, observes and continues byte-identically.
// A fleet with such a member round-trips too.
func TestBatteryPairwise(t *testing.T) {
	ctx := context.Background()
	m := radio.Default(500)
	cap := 40 * m.MaxPower()
	const drain = 1.0
	eng, err := New(WithMaxRadius(500), WithBattery(cap, drain), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(ctx, someNetwork(59, 50))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(71)
	pruned := 0 // live nodes whose radius pairwise removal shortened
	for step := 0; step < 6; step++ {
		before := make([]float64, sess.Len())
		for u := range before {
			before[u] = sess.Residual(u)
		}
		if _, _, err := sess.Tick(randomBatch(rng, sess, 3, 1500)); err != nil {
			t.Fatal(err)
		}
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < sess.Len(); u++ {
			if !sess.Alive(u) {
				continue
			}
			r, err := sess.NodeRadius(u)
			if err != nil {
				t.Fatal(err)
			}
			if want := graph.NodeRadius(snap.G, snap.Pos, u); r != want {
				t.Fatalf("step %d node %d: NodeRadius %v, radius in G %v", step, u, r, want)
			}
			if r < graph.NodeRadius(snap.topo.Gpre, snap.Pos, u) {
				pruned++
			}
			b := cap // a node joined this tick starts full
			if u < len(before) {
				b = before[u]
			}
			want := math.Max(b-drain*m.PowerFor(r), 0)
			if got := sess.Residual(u); got != want {
				t.Fatalf("step %d node %d: residual %v, want %v", step, u, got, want)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("pairwise removal never shortened a drained radius")
	}

	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := codec.DecodeSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Battery == nil {
		t.Fatal("checkpoint of a battery session carries no battery vector")
	}
	restored, err := eng.RestoreSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireSessionsIdentical(t, sess, restored)
	var again bytes.Buffer
	if err := restored.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("restored session re-encodes differently")
	}
	for step := 0; step < 5; step++ {
		batch := randomBatch(rng, sess, 3, 1500)
		repA, tsA, errA := sess.Tick(batch)
		repB, tsB, errB := restored.Tick(batch)
		if errA != nil || errB != nil {
			t.Fatalf("tick %d: %v / %v", step, errA, errB)
		}
		if !reflect.DeepEqual(repA, repB) || tsA != tsB {
			t.Fatalf("tick %d: drained observations diverge: %+v != %+v", step, tsB, tsA)
		}
	}
	requireSessionsIdentical(t, sess, restored)

	fleet, err := fleetEngine(t).NewFleet(ctx, FleetConfig{Seed: 3, Members: []MemberSpec{
		{Placement: someNetwork(63, 30)},
		{Placement: someNetwork(64, 30), Options: []Option{WithBattery(cap, drain), WithAllOptimizations()}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tick := LifetimeTick(TickProfile{Moves: 2, Jitter: 40, Width: 1500, Height: 1500})
	if _, err := fleet.Run(ctx, 4, tick); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fleet.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restoredFleet, err := fleetEngine(t).RestoreFleet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Run(ctx, 4, tick)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restoredFleet.Run(ctx, 4, tick)
	if err != nil {
		t.Fatal(err)
	}
	zeroSched(want)
	zeroSched(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored fleet with a pairwise battery member diverges from the uninterrupted one")
	}
}

// TestSnapshotRadiusFold pins the Summarize fold-down: the snapshot's
// radius and degree tables, assembled from the maintained per-node
// radius cache, are bitwise identical to re-deriving them from the
// snapshot graph.
func TestSnapshotRadiusFold(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(41, 50))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(17)
	for step := 0; step < 8; step++ {
		if _, err := sess.ApplyBatch(randomBatch(rng, sess, 5, 1500)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for u := range snap.Radii {
		want := graph.NodeRadius(snap.G, snap.Pos, u)
		if snap.Radii[u] != want {
			t.Fatalf("node %d: folded radius %v != derived %v", u, snap.Radii[u], want)
		}
		sum += snap.Radii[u]
	}
	if want := graph.AvgDegree(snap.G); snap.AvgDegree != want {
		t.Fatalf("folded AvgDegree %v != derived %v", snap.AvgDegree, want)
	}
	if want := sum / float64(len(snap.Radii)); snap.AvgRadius != want {
		t.Fatalf("folded AvgRadius %v != derived %v", snap.AvgRadius, want)
	}
}

// TestBatteryDrainSemantics pins the energy model exactly: each tick a
// live node pays drain × p(radius) off its battery, batteries clamp at
// zero, Depleted lists the dead in ascending id order, and LifetimeTick
// converts them into applicable Leave events exactly once.
func TestBatteryDrainSemantics(t *testing.T) {
	m := radio.Default(500)
	cap := 2.5 * m.MaxPower() // every max-radius node dies on the third tick
	const drain = 1.0
	eng, err := New(WithMaxRadius(500), WithBattery(cap, drain))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(53, 30))
	if err != nil {
		t.Fatal(err)
	}
	n := sess.Len()
	radii := make([]float64, n)
	for u := 0; u < n; u++ {
		r, err := sess.NodeRadius(u)
		if err != nil {
			t.Fatal(err)
		}
		radii[u] = r
	}

	if _, ts, err := sess.Tick(nil); err != nil {
		t.Fatal(err)
	} else if ts.Residual <= 0 || ts.Residual >= cap {
		t.Fatalf("one-tick mean residual %v out of (0, %v)", ts.Residual, cap)
	}
	for u := 0; u < n; u++ {
		want := cap - drain*m.PowerFor(radii[u])
		if want < 0 {
			want = 0
		}
		if got := sess.Residual(u); got != want {
			t.Fatalf("node %d: residual %v != %v after one tick", u, got, want)
		}
	}
	if dead := sess.Depleted(); dead != nil {
		t.Fatalf("nodes depleted after one tick at capacity 2.5 ticks: %v", dead)
	}

	// Drain three more ticks and check the death list against first
	// principles: after k quiescent ticks node u has paid k·drain·p(r_u),
	// so it is depleted exactly when that covers its capacity. The 2.5-tick
	// capacity guarantees a mix: wide-radius nodes die, narrow ones last.
	for i := 0; i < 3; i++ {
		if _, _, err := sess.Tick(nil); err != nil {
			t.Fatal(err)
		}
	}
	var want []int
	for u := 0; u < n; u++ {
		if sess.Alive(u) && m.PowerFor(radii[u]) > 0 && cap-4*drain*m.PowerFor(radii[u]) <= 0 {
			want = append(want, u)
		}
	}
	dead := sess.Depleted()
	if !reflect.DeepEqual(dead, want) {
		t.Fatalf("Depleted() = %v, want %v", dead, want)
	}
	if len(dead) == 0 || len(dead) == n {
		t.Fatalf("depletion split %d/%d is degenerate; pick a different capacity", len(dead), n)
	}

	// LifetimeTick with a quiescent profile emits exactly the death
	// leaves; applying them removes the dead and empties Depleted.
	tick := LifetimeTick(TickProfile{Width: 1500, Height: 1500})
	events := tick(0, 0, workload.Rand(1), sess)
	if len(events) != len(dead) {
		t.Fatalf("LifetimeTick emitted %d events for %d deaths: %v", len(events), len(dead), events)
	}
	for i, ev := range events {
		if ev.Kind != EventLeave || ev.ID != dead[i] {
			t.Fatalf("event %d = %+v, want leave of %d", i, ev, dead[i])
		}
	}
	// Apply without Tick's own drain so no fresh deaths muddy the check:
	// once the dead have left, nothing is depleted.
	if _, err := sess.ApplyBatch(events); err != nil {
		t.Fatalf("applying death leaves: %v", err)
	}
	if sess.Depleted() != nil {
		t.Fatalf("Depleted() non-empty after deaths applied: %v", sess.Depleted())
	}
	if got := sess.LiveCount(); got != n-len(dead) {
		t.Fatalf("LiveCount() = %d, want %d", got, n-len(dead))
	}
}

// TestLifetimeFleet runs a mixed fleet — one plain member, one
// battery-backed member — under LifetimeTick until the battery member
// dies out, asserting deaths only occur where there are batteries and
// that the pooled fleet observation reflects battery members alone.
func TestLifetimeFleet(t *testing.T) {
	ctx := context.Background()
	m := radio.Default(workload.PaperRadius)
	cap := 5 * m.MaxPower()
	eng := fleetEngine(t)
	members := []MemberSpec{
		{Placement: someNetwork(61, 30)},
		{Placement: someNetwork(62, 30), Options: []Option{WithBattery(cap, 1)}},
	}
	fleet, err := eng.NewFleet(ctx, FleetConfig{Members: members, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Before any draining the pooled residual is exactly the battery
	// member's full capacity — the plain member must not dilute it.
	obs, err := fleet.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if obs.Residual != cap || obs.EnergyVar != 0 {
		t.Fatalf("fresh pooled observation = (%v, %v), want (%v, 0)", obs.Residual, obs.EnergyVar, cap)
	}

	tick := LifetimeTick(TickProfile{Moves: 2, Jitter: 40, Width: 1500, Height: 1500})
	rep, err := fleet.Run(ctx, 12, tick)
	if err != nil {
		t.Fatal(err)
	}
	// LifetimeTick's only leaves come from depletion: the plain member
	// keeps all 30 nodes while the battery member loses its wide-radius
	// nodes (narrow- and zero-radius nodes drain slower and may survive).
	if alive := fleet.Session(0).LiveCount(); alive != 30 {
		t.Fatalf("plain member has %d live nodes, want all 30", alive)
	}
	if alive := fleet.Session(1).LiveCount(); alive >= 30 {
		t.Fatalf("battery member still has %d live nodes after %d ticks at 5-tick capacity", alive, 12)
	}
	// The per-member series carry the battery streams: zeros for the
	// plain member, a positive decaying mean for the battery member.
	if s := rep.PerNetwork[0].Series.Residual; s.Count != 12 || s.MaxV != 0 {
		t.Fatalf("plain member residual stream = %+v, want 12 all-zero observations", s)
	}
	if s := rep.PerNetwork[1].Series.Residual; s.Count != 12 || s.MaxV <= 0 || s.MaxV >= cap || s.MinV >= s.MaxV {
		t.Fatalf("battery member residual stream = %+v, want a decaying positive mean below %v", s, cap)
	}
}

// TestRadioOptionConflicts: the battery and shadowing options keep
// New's single-error contract — every invalid value or combination is
// one ErrBadConfig.
func TestRadioOptionConflicts(t *testing.T) {
	bad := [][]Option{
		{WithMaxRadius(500), WithBattery(0, 1)},
		{WithMaxRadius(500), WithBattery(-3, 1)},
		{WithMaxRadius(500), WithBattery(math.NaN(), 1)},
		{WithMaxRadius(500), WithBattery(10, -1)},
		{WithMaxRadius(500), WithBattery(10, math.Inf(1))},
		{WithMaxRadius(500), WithShadowing(-1, 0)},
		{WithMaxRadius(500), WithShadowing(math.NaN(), 0)},
		{WithMaxRadius(500), WithShadowing(126976, 0)}, // widens R past the float range
		{WithMaxRadius(math.Inf(1))},
	}
	for i, opts := range bad {
		if _, err := New(opts...); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: New() error = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestEnergyMSTBaseline: the energy-balanced comparator spans exactly
// the max-power graph's partition, prices zero-residual nodes out of
// the forest entirely, and validates its residual vector.
func TestEnergyMSTBaseline(t *testing.T) {
	nodes := someNetwork(71, 60)
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Baseline(BaselineEnergyMST, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.G.IsSubgraphOf(res.GR) {
		t.Fatal("energy MST is not a subgraph of G_R")
	}
	if !graph.SamePartition(res.G, res.GR) {
		t.Fatal("energy MST does not span the max-power partition")
	}
	if res.G.EdgeCount() >= len(nodes) {
		t.Fatalf("forest has %d edges over %d nodes; not acyclic", res.G.EdgeCount(), len(nodes))
	}

	// A nil residual vector is the plain power-weighted MST.
	viaNil, err := eng.EnergyBaseline(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !viaNil.G.Equal(res.G) {
		t.Fatal("EnergyBaseline(nil) differs from Baseline(BaselineEnergyMST)")
	}
	// Uniform residuals scale every weight identically: same forest.
	uniform := make([]float64, len(nodes))
	for i := range uniform {
		uniform[i] = 1
	}
	viaUniform, err := eng.EnergyBaseline(nodes, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if !viaUniform.G.Equal(res.G) {
		t.Fatal("uniform residuals changed the forest")
	}
	// Dead nodes take no edges: the forest must reroute around them.
	drained := append([]float64(nil), uniform...)
	drained[7], drained[20] = 0, 0
	viaDrained, err := eng.EnergyBaseline(nodes, drained)
	if err != nil {
		t.Fatal(err)
	}
	if d := viaDrained.G.Degree(7) + viaDrained.G.Degree(20); d != 0 {
		t.Fatalf("zero-residual nodes carry %d edges", d)
	}
	if _, err := eng.EnergyBaseline(nodes, uniform[:10]); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short residual vector: got %v, want ErrBadConfig", err)
	}
}

// TestShadowedResultsCarryShadowedGR: on a WithShadowing engine every
// Result's G_R is the maximum-power graph of the shadowed radio G was
// grown under, not the nominal power law's — for Run, Simulate, the
// pairwise stack's session snapshot and BetaSkeleton alike — and G stays
// inside it. Shadowing widens some links past R and cuts others, so the
// nominal graph both misses edges of G and keeps edges the radio does
// not realize. The β-skeleton therefore runs over the shadowed link set
// too, and keeps its identities with the Gabriel graph (β = 1) and the
// RNG (β = 2).
func TestShadowedResultsCarryShadowedGR(t *testing.T) {
	ctx := context.Background()
	pos := workload.Uniform(workload.Rand(1), 200, 2000, 2000)
	eng, err := New(WithMaxRadius(500), WithShadowing(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := core.MaxPowerGraph(pos, eng.Propagation())
	if core.MaxPowerGraph(pos, eng.RadioModel()).Equal(want) {
		t.Fatal("placement too sparse: shadowing changed no max-power link")
	}

	requireGR := func(what string, res *Result) {
		t.Helper()
		if !res.GR.Equal(want) {
			t.Errorf("%s: GR has %d edges, want the shadowed max-power graph's %d",
				what, res.GR.EdgeCount(), want.EdgeCount())
		}
		if !res.G.IsSubgraphOf(res.GR) {
			t.Errorf("%s: G is not a subgraph of GR", what)
		}
	}
	run, err := eng.Run(ctx, pos)
	if err != nil {
		t.Fatal(err)
	}
	requireGR("Run", run)
	sim, err := eng.Simulate(ctx, pos, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireGR("Simulate", sim)
	for _, tc := range []struct {
		beta float64
		kind BaselineKind
	}{{1, BaselineGabriel}, {2, BaselineRNG}} {
		beta, err := eng.BetaSkeleton(tc.beta, pos)
		if err != nil {
			t.Fatal(err)
		}
		requireGR(fmt.Sprintf("BetaSkeleton(%v)", tc.beta), beta)
		base, err := eng.Baseline(tc.kind, pos)
		if err != nil {
			t.Fatal(err)
		}
		requireGR(tc.kind.String(), base)
		if !beta.G.Equal(base.G) {
			t.Errorf("BetaSkeleton(%v) has %d edges, want the %v graph's %d",
				tc.beta, beta.G.EdgeCount(), tc.kind, base.G.EdgeCount())
		}
	}

	pairwise, err := New(WithMaxRadius(500), WithShadowing(4, 1), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := pairwise.NewSession(ctx, pos)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireGR("pairwise session snapshot", snap)
}
