package cbtc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"cbtc/internal/codec"
	"cbtc/internal/core"
	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

// memberReport holds the live-state fields of a FleetNetworkReport, the
// ones Session.report reads.
type memberReport struct {
	Final      TickStats
	Stats      SessionStats
	DegreeDist stats.IntHist
	Preserved  bool
}

// sessionReport is Session.report as a memberReport.
func sessionReport(s *Session) memberReport {
	var r memberReport
	r.Final, r.Stats, r.DegreeDist, r.Preserved = s.report()
	return r
}

// referenceMemberReport reads the same fields the way fleet reports did
// before Session.report: from a Snapshot, whose Result labels the
// components of G and of G_R from scratch, with the degree histogram
// taken node by node through the session's public methods.
func referenceMemberReport(tb testing.TB, s *Session) memberReport {
	tb.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := s.Observe()
	if err != nil {
		tb.Fatal(err)
	}
	r := memberReport{Final: ts, Stats: s.Stats(), Preserved: snap.PreservesConnectivity()}
	for id := 0; id < s.Len(); id++ {
		if s.Alive(id) {
			r.DegreeDist.Add(snap.G.Degree(id))
		}
	}
	return r
}

// reportTally counts what the member-report checks exercised.
type reportTally struct {
	preserved, split int // Preserved true; false with g in several components
}

// requireMemberReport requires got, a report of s, to equal the
// snapshot reference field for field, and s's g to be a subgraph of its
// G_R, which the maintained report relies on.
func requireMemberReport(tb testing.TB, step string, s *Session, got memberReport, tally *reportTally) {
	tb.Helper()
	if want := referenceMemberReport(tb, s); !reflect.DeepEqual(got, want) {
		tb.Fatalf("%s: report %+v, snapshot reference %+v", step, got, want)
	}
	s.mu.Lock()
	inGR := s.g.IsSubgraphOf(s.gr)
	s.mu.Unlock()
	if !inGR {
		tb.Fatalf("%s: g has an edge outside G_R", step)
	}
	switch {
	case got.Preserved:
		tally.preserved++
	case got.Final.Components > 1:
		tally.split++
	}
}

// memberReportStacks are the engines the maintained report is checked
// on: the fleet-mobility stacks, tag quantization, a battery, and
// α = π and α = 2π, where g can split away from G_R, so that Preserved
// reads false while g has several components.
var memberReportStacks = []struct {
	name     string
	opts     []Option
	protocol bool
}{
	{"shrinkback", []Option{WithShrinkBack()}, false},
	{"all-ops", []Option{WithAllOptimizations()}, false},
	{"shadowed", []Option{WithShrinkBack(), WithShadowing(4, 5)}, false},
	{"schedule", []Option{WithShrinkBack(), WithShrinkBackSchedule(1.5)}, false},
	{"battery", []Option{WithShrinkBack(), WithBattery(1e6, 1)}, false},
	{"protocol", []Option{WithShrinkBack()}, true},
	{"alpha-pi", []Option{WithAlpha(math.Pi)}, false},
	{"alpha-2pi", []Option{WithAlpha(2 * math.Pi)}, false},
}

const (
	reportSide   = 1200.0 // region side of the member-report histories
	reportRadius = 300.0  // their maximum radius R
)

// TestMemberReportMatchesSnapshot drives a fleet with one member per
// stack of memberReportStacks through seeded histories, alternating
// TickEvents bursts drawn by randomBatch with LifetimeTick rounds, and
// through a checkpoint and restore half way. After every tick each
// member's NetworkReport must equal the snapshot reference. A fixed
// placement then splits g where its largest component is not involved,
// which must agree with the reference too, and a checkpoint whose node
// row names a live node outside G_R must not restore.
func TestMemberReportMatchesSnapshot(t *testing.T) {
	ctx := context.Background()
	var tally reportTally
	for seed := uint64(1); seed <= 3; seed++ {
		eng, err := New(WithMaxRadius(reportRadius))
		if err != nil {
			t.Fatal(err)
		}
		members := make([]MemberSpec, len(memberReportStacks))
		for i, st := range memberReportStacks {
			members[i] = MemberSpec{
				Placement: workload.Uniform(workload.Rand(seed*16+uint64(i)), 60, reportSide, reportSide),
				Options:   st.opts,
			}
			if st.protocol {
				members[i].Kind = MemberProtocol
			}
		}
		f, err := eng.NewFleet(ctx, FleetConfig{Members: members, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 29))
		drift := LifetimeTick(TickProfile{Moves: 6, Jitter: reportRadius / 4, JoinProb: 0.3, LeaveProb: 0.3, Width: reportSide, Height: reportSide})
		for round := 0; round < 16; round++ {
			if round == 8 {
				if f, err = eng.RestoreFleet(bytes.NewReader(fleetBytes(t, f))); err != nil {
					t.Fatal(err)
				}
			}
			if round%2 == 0 {
				batches := make([][]Event, f.Size())
				for i := range batches {
					batches[i] = randomBatch(rng, f.Session(i), 1+rng.IntN(24), reportSide)
				}
				err = f.TickEvents(ctx, batches)
			} else {
				err = f.Advance(ctx, 1, drift)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range memberReportStacks {
				nr, err := f.NetworkReport(i)
				if err != nil {
					t.Fatal(err)
				}
				got := memberReport{nr.Final, nr.Stats, nr.DegreeDist, nr.Preserved}
				requireMemberReport(t, fmt.Sprintf("seed %d round %d %s", seed, round, st.name), f.Session(i), got, &tally)
			}
		}
	}
	if tally.preserved == 0 || tally.split == 0 {
		t.Fatalf("histories never exercised both Preserved values: %+v", tally)
	}

	// A split that g's largest component does not touch. At α = 2π a node
	// links only its nearest neighbor, so two close pairs 190 apart, one
	// G_R component, are two components of g. A six-node star far from
	// them is g's largest component, and no G_R edge leaves it.
	eng, err := New(WithMaxRadius(reportRadius), WithAlpha(2*math.Pi))
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{Pt(100, 100)}
	for k := range 5 {
		a := 2 * math.Pi * float64(k) / 5
		pts = append(pts, Pt(100+20*math.Cos(a), 100+20*math.Sin(a)))
	}
	pts = append(pts, Pt(1000, 1000), Pt(1010, 1000), Pt(1200, 1000), Pt(1210, 1000))
	s, err := eng.NewSession(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	got := sessionReport(s)
	requireMemberReport(t, "split beside the largest component", s, got, &tally)
	if got.Preserved || got.Final.Components != 3 {
		t.Fatalf("star and two pairs: Preserved %v over %d components, want false over 3", got.Preserved, got.Final.Components)
	}

	// Two 24-node clusters 2R apart, with node 0 of the first given an
	// arc to the last node of the second: the arc would join two G_R
	// components in g, so restore refuses it.
	for seed := uint64(1); seed <= 2; seed++ {
		pts := workload.Uniform(workload.Rand(seed), 24, 2*reportRadius, 2*reportRadius)
		for _, p := range workload.Uniform(workload.Rand(seed+100), 24, 2*reportRadius, 2*reportRadius) {
			pts = append(pts, Pt(p.X+4*reportRadius, p.Y+4*reportRadius))
		}
		eng, err := New(WithMaxRadius(reportRadius))
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.NewSession(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = restoreEdited(t, eng, s, func(st *codec.SessionState) { plantArc(eng, st, 0, len(pts)-1) })
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("seed %d: a row naming a node in another G_R component restored with %v, want ErrCheckpointCorrupt", seed, err)
		}
	}
	t.Logf("%+v", tally)
}

// restoreEdited checkpoints s, applies edit (when non-nil) to the
// exported state under the session lock, and restores the result.
func restoreEdited(t *testing.T, eng *Engine, s *Session, edit func(st *codec.SessionState)) (*Session, error) {
	t.Helper()
	s.mu.Lock()
	st := s.exportLocked()
	if edit != nil {
		edit(st)
	}
	s.mu.Unlock()
	var buf bytes.Buffer
	if err := codec.EncodeSession(&buf, st); err != nil {
		t.Fatal(err)
	}
	return eng.RestoreSession(&buf)
}

// plantArc gives node u's exported row an arc to v. Exported rows alias
// the session's, so the arc goes into a copy.
func plantArc(eng *Engine, st *codec.SessionState, u, v int) {
	d := st.Pos[u].Dist(st.Pos[v])
	st.Nodes[u].Neighbors = append(slices.Clone(st.Nodes[u].Neighbors), core.Discovery{
		ID: v, Dist: d, Dir: st.Pos[u].Bearing(st.Pos[v]), Power: eng.model.PowerFor(d),
	})
}

// FuzzMemberReport decodes bytes into a member-report history: a stack
// of memberReportStacks, a placement seed and node count, then steps —
// a randomBatch burst applied as one Tick, a checkpoint and restore, or
// a restore with one node's row given an arc to a live node outside
// G_R, which must be refused. After every step the session's report
// must equal the snapshot reference, and its g must lie inside G_R.
func FuzzMemberReport(f *testing.F) {
	for i := range memberReportStacks {
		f.Add([]byte{byte(i), byte(7 * i), 30, 0, 12, 2, 1, 5, 3, 0, 20, 2, 3, 0, 9})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		stack := memberReportStacks[int(data[0])%len(memberReportStacks)]
		seed, n := uint64(data[1]), 8+int(data[2])%33
		steps := data[3:]
		if len(steps) > 24 {
			steps = steps[:24]
		}
		eng, err := New(append([]Option{WithMaxRadius(reportRadius)}, stack.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		pos := workload.Uniform(workload.Rand(seed), n, reportSide, reportSide)
		var s *Session
		if stack.protocol {
			s, err = eng.NewProtocolSession(context.Background(), pos, SimOptions{Seed: seed})
		} else {
			s, err = eng.NewSession(context.Background(), pos)
		}
		if err != nil {
			t.Fatal(err)
		}
		var tally reportTally
		requireMemberReport(t, "initial", s, sessionReport(s), &tally)
		rng := rand.New(rand.NewPCG(seed, 37))
		for k := 0; k < len(steps); k++ {
			switch steps[k] % 4 {
			case 0, 1:
				size := 1
				if k+1 < len(steps) {
					k++
					size += int(steps[k]) % 16
				}
				var events []Event
				if s.LiveCount() > 0 {
					events = randomBatch(rng, s, size, reportSide)
				} else { // randomBatch needs a live node to draw from
					events = []Event{JoinEvent(Pt(rng.Float64()*reportSide, rng.Float64()*reportSide))}
				}
				if _, _, err := s.Tick(events); err != nil {
					t.Fatal(err)
				}
			case 2:
				s = restoredSession(t, eng, s, nil)
			case 3:
				s = restoredSession(t, eng, s, rng)
			}
			requireMemberReport(t, fmt.Sprintf("step %d (%d)", k, steps[k]), s, sessionReport(s), &tally)
		}
	})
}

// restoredSession checkpoints s and restores it under eng. With a
// non-nil rng it first plants, in a random live node's row, an arc to a
// random live node outside its G_R row, when there is one. Restore must
// refuse such a row as corrupt, and s is then kept as it is.
func restoredSession(t *testing.T, eng *Engine, s *Session, rng *rand.Rand) *Session {
	t.Helper()
	planted := false
	var edit func(st *codec.SessionState)
	if rng != nil {
		edit = func(st *codec.SessionState) {
			var live []int
			for u, alive := range st.Alive {
				if alive {
					live = append(live, u)
				}
			}
			if len(live) < 2 {
				return
			}
			u, v := live[rng.IntN(len(live))], live[rng.IntN(len(live))]
			named := slices.ContainsFunc(st.Nodes[u].Neighbors, func(nb core.Discovery) bool { return nb.ID == v })
			if v != u && !named && !s.gr.HasEdge(u, v) {
				plantArc(eng, st, u, v)
				planted = true
			}
		}
	}
	r, err := restoreEdited(t, eng, s, edit)
	if planted {
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("a row planted outside G_R restored with %v, want ErrCheckpointCorrupt", err)
		}
		return s
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}
