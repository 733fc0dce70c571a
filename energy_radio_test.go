package cbtc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"cbtc/internal/codec"
	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// radioStacks are the optimization stacks the PR 10 radio redesign is
// gated on — the same coverage axes as checkpointStacks, expressed as
// suffixes so each can be paired with either radio surface (legacy
// WithMaxRadius/WithPathLoss or the redesigned WithRadioModel).
var radioStacks = []struct {
	name string
	opts []Option
}{
	{"basic", nil},
	{"shrink-back", []Option{WithShrinkBack()}},
	{"all-ops", []Option{WithAllOptimizations()}},
	{"asym-2pi3", []Option{WithAlpha(AlphaAsymmetric), WithShrinkBack(), WithAsymmetricRemoval()}},
}

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

// TestRadioModelEquivalence is the redesign's compatibility gate: the
// power-law model routed through WithRadioModel and the radio.Propagation
// interface produces byte-identical output to the legacy
// WithMaxRadius/WithPathLoss surface across every executor — oracle
// runs, seeded protocol simulations, baselines, and full session event
// histories — on every optimization stack.
func TestRadioModelEquivalence(t *testing.T) {
	nodes := someNetwork(77, 60)
	ctx := context.Background()
	for _, st := range radioStacks {
		st := st
		t.Run(st.name, func(t *testing.T) {
			legacy, err := New(append([]Option{WithMaxRadius(500), WithPathLoss(3)}, st.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			model, err := New(append([]Option{WithRadioModel(radio.Model{Exponent: 3, MaxRadius: 500, RefLoss: 1})}, st.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if legacy.fingerprint() != model.fingerprint() {
				t.Fatalf("fingerprints differ:\n%+v\n%+v", legacy.fingerprint(), model.fingerprint())
			}

			wantRun, err := legacy.Run(ctx, nodes)
			if err != nil {
				t.Fatal(err)
			}
			gotRun, err := model.Run(ctx, nodes)
			if err != nil {
				t.Fatal(err)
			}
			requireResultsIdentical(t, wantRun, gotRun)

			sim := SimOptions{Seed: 9}
			wantSim, err := legacy.Simulate(ctx, nodes, sim)
			if err != nil {
				t.Fatal(err)
			}
			gotSim, err := model.Simulate(ctx, nodes, sim)
			if err != nil {
				t.Fatal(err)
			}
			requireResultsIdentical(t, wantSim, gotSim)

			for _, kind := range BaselineKinds() {
				wantB, err := legacy.Baseline(kind, nodes)
				if err != nil {
					t.Fatal(err)
				}
				gotB, err := model.Baseline(kind, nodes)
				if err != nil {
					t.Fatal(err)
				}
				requireResultsIdentical(t, wantB, gotB)
			}

			// Same random event history on both sessions: every report and
			// observation must match, and the final states must be identical.
			sessA, err := legacy.NewSession(ctx, nodes)
			if err != nil {
				t.Fatal(err)
			}
			sessB, err := model.NewSession(ctx, nodes)
			if err != nil {
				t.Fatal(err)
			}
			rngA, rngB := workload.Rand(13), workload.Rand(13)
			for step := 0; step < 8; step++ {
				batch := randomBatch(rngA, sessA, 4, 1500)
				if !reflect.DeepEqual(batch, randomBatch(rngB, sessB, 4, 1500)) {
					t.Fatalf("step %d: event streams diverged", step)
				}
				repA, tsA, errA := sessA.Tick(batch)
				repB, tsB, errB := sessB.Tick(batch)
				if errA != nil || errB != nil {
					t.Fatalf("step %d: %v / %v", step, errA, errB)
				}
				if !reflect.DeepEqual(repA, repB) || tsA != tsB {
					t.Fatalf("step %d: session histories diverge", step)
				}
			}
			requireSessionsIdentical(t, sessA, sessB)
		})
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

// TestV2CheckpointRestores is the backward-compatibility gate of the
// codec version bump: a version-2 stream (pure power-law radio, no
// battery) still restores — the decoder implies RefLoss 1 — and the
// restored session continues byte-identically.
func TestV2CheckpointRestores(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(19, 40))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(3)
	for step := 0; step < 6; step++ {
		if _, err := sess.ApplyBatch(randomBatch(rng, sess, 4, 1500)); err != nil {
			t.Fatal(err)
		}
	}

	sess.mu.Lock()
	st := sess.exportLocked()
	sess.mu.Unlock()
	var buf bytes.Buffer
	if err := codec.EncodeSessionVersion(&buf, st, 2); err != nil {
		t.Fatalf("v2 encode of power-law state: %v", err)
	}
	restored, err := eng.RestoreSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v2 restore: %v", err)
	}
	requireSessionsIdentical(t, sess, restored)
	for step := 0; step < 4; step++ {
		batch := randomBatch(rng, sess, 4, 1500)
		repA, tsA, errA := sess.Tick(batch)
		repB, tsB, errB := restored.Tick(batch)
		if errA != nil || errB != nil {
			t.Fatalf("tick %d: %v / %v", step, errA, errB)
		}
		if !reflect.DeepEqual(repA, repB) || tsA != tsB {
			t.Fatalf("tick %d: v2-restored session diverges", step)
		}
	}
}

// TestV2CannotCarryEnergyState: downgrade encoding refuses states the
// version-2 format cannot represent — shadowed radios, non-unit
// reference losses and battery vectors — with the codec's typed
// version error.
func TestV2CannotCarryEnergyState(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		opts []Option
	}{
		{"shadowed", []Option{WithMaxRadius(500), WithShadowing(4, 1)}},
		{"battery", []Option{WithMaxRadius(500), WithBattery(1e9, 1)}},
		{"ref-loss", []Option{WithRadioModel(radio.Model{Exponent: 2, MaxRadius: 500, RefLoss: 2})}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(ctx, someNetwork(4, 20))
			if err != nil {
				t.Fatal(err)
			}
			sess.mu.Lock()
			st := sess.exportLocked()
			sess.mu.Unlock()
			var buf bytes.Buffer
			if err := codec.EncodeSessionVersion(&buf, st, 2); !errors.Is(err, codec.ErrVersion) {
				t.Fatalf("v2 encode: got %v, want ErrVersion", err)
			}
			// The current version carries it fine, and only the producing
			// engine fingerprint restores it.
			var v3 bytes.Buffer
			if err := sess.Checkpoint(&v3); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RestoreSession(bytes.NewReader(v3.Bytes())); err != nil {
				t.Fatal(err)
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

// TestRadioOptionConflicts: the redesigned surface keeps New's
// single-error contract — every conflicting or invalid combination is
// one ErrBadConfig.
func TestRadioOptionConflicts(t *testing.T) {
	okModel := radio.Model{Exponent: 2, MaxRadius: 500, RefLoss: 1}
	bad := [][]Option{
		{WithRadioModel(okModel), WithPathLoss(3)},
		{WithRadioModel(okModel), WithMaxRadius(400)},
		{WithRadioModel(okModel), WithConfig(Config{MaxRadius: 500})},
		{WithRadioModel(radio.Model{Exponent: 0.5, MaxRadius: 500, RefLoss: 1})},
		{WithRadioModel(radio.Model{Exponent: 2, MaxRadius: 500, RefLoss: -1})},
		{WithMaxRadius(500), WithBattery(0, 1)},
		{WithMaxRadius(500), WithBattery(-3, 1)},
		{WithMaxRadius(500), WithBattery(math.NaN(), 1)},
		{WithMaxRadius(500), WithBattery(10, -1)},
		{WithMaxRadius(500), WithBattery(10, math.Inf(1))},
		{WithMaxRadius(500), WithBattery(10, 1), WithPairwiseRemoval(PairwisePolicy(0))},
		{WithMaxRadius(500), WithBattery(10, 1), WithAllOptimizations()},
		{WithMaxRadius(500), WithShadowing(-1, 0)},
		{WithMaxRadius(500), WithShadowing(math.NaN(), 0)},
	}
	for i, opts := range bad {
		if _, err := New(opts...); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: New() error = %v, want ErrBadConfig", i, err)
		}
	}
	// A Config carrying no radio fields composes with WithRadioModel.
	eng, err := New(WithRadioModel(okModel), WithConfig(Config{Alpha: AlphaAsymmetric}), WithShrinkBack())
	if err != nil {
		t.Fatalf("radio-free WithConfig alongside WithRadioModel: %v", err)
	}
	if eng.Alpha() != AlphaAsymmetric || eng.RadioModel() != okModel {
		t.Fatalf("composed engine: alpha %v, model %+v", eng.Alpha(), eng.RadioModel())
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
// pairwise stack's session snapshot and BetaSkeleton alike. Shadowing
// widens some links past R and cuts others, so the nominal graph both
// misses edges of G and keeps edges the radio does not realize.
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
	beta, err := eng.BetaSkeleton(2, pos)
	if err != nil {
		t.Fatal(err)
	}
	requireGR("BetaSkeleton", beta)

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
