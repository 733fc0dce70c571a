package cbtc

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"cbtc/internal/workload"
)

// observeStacks are the option stacks the O(changed) Observe path is
// proved equivalent under: shrink-back, shrink-back with asymmetric-edge
// removal, the bare basic algorithm, and the pairwise-removal stack.
var observeStacks = []struct {
	name string
	opts []Option
}{
	{"shrink-back", []Option{WithMaxRadius(500), WithShrinkBack()}},
	{"asym", []Option{WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithShrinkBack(), WithAsymmetricRemoval()}},
	{"plain", []Option{WithMaxRadius(500)}},
	{"pairwise", []Option{WithMaxRadius(500), WithAllOptimizations()}},
}

// referenceObserve computes TickStats the expensive way — a snapshot,
// a component BFS, and a fresh per-node radius fold — bypassing every
// maintained aggregate. The maintained path must match it exactly:
// integers with ==, floats bitwise.
func referenceObserve(t *testing.T, s *Session) TickStats {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	return observeGraph(s.snapshotLocked().G, s.alive, s.pos, s.nodes)
}

func requireObserveMatches(t *testing.T, step string, s *Session) {
	t.Helper()
	got, err := s.Observe()
	if err != nil {
		t.Fatalf("%s: Observe: %v", step, err)
	}
	want := referenceObserve(t, s)
	if got != want {
		t.Fatalf("%s: Observe = %+v, reference = %+v", step, got, want)
	}
	if lc := s.LiveCount(); lc != want.Live {
		t.Fatalf("%s: LiveCount = %d, reference live = %d", step, lc, want.Live)
	}
}

// TestSessionObserveLockstep drives random Join/Leave/Move/ApplyBatch
// interleavings and asserts the maintained Observe equals the reference
// full scan after every event, on every option stack.
func TestSessionObserveLockstep(t *testing.T) {
	const side = 2000.0
	ctx := context.Background()
	for _, stack := range observeStacks {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", stack.name, seed), func(t *testing.T) {
				t.Parallel()
				eng, err := New(stack.opts...)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(seed, 991))
				pts := workload.Uniform(rng, 40, side, side)
				s, err := eng.NewSession(ctx, pts)
				if err != nil {
					t.Fatal(err)
				}
				requireObserveMatches(t, "initial", s)

				randPoint := func() Point {
					return Point{X: rng.Float64() * side, Y: rng.Float64() * side}
				}
				liveIDs := func() []int {
					var ids []int
					for id := 0; id < s.Len(); id++ {
						if s.Alive(id) {
							ids = append(ids, id)
						}
					}
					return ids
				}
				randEvent := func() Event {
					ids := liveIDs()
					switch op := rng.IntN(6); {
					case op < 2 && len(ids) > 4:
						return LeaveEvent(ids[rng.IntN(len(ids))])
					case op < 4 && len(ids) > 0:
						return MoveEvent(ids[rng.IntN(len(ids))], randPoint())
					default:
						return JoinEvent(randPoint())
					}
				}
				for step := 0; step < 60; step++ {
					if rng.IntN(4) == 0 {
						// A batch tick: several events through one repair.
						events := make([]Event, 1+rng.IntN(4))
						for i := range events {
							events[i] = randEvent()
						}
						// Same-id collisions (move after leave) are
						// rejected up front; skip those batches.
						if s.ValidateBatch(events) != nil {
							continue
						}
						if _, err := s.ApplyBatch(events); err != nil {
							t.Fatalf("step %d: ApplyBatch: %v", step, err)
						}
						requireObserveMatches(t, fmt.Sprintf("step %d (batch)", step), s)
						continue
					}
					e := randEvent()
					var err error
					switch e.Kind {
					case EventJoin:
						_, _ = s.Join(e.Pos)
					case EventLeave:
						_, err = s.Leave(e.ID)
					case EventMove:
						_, err = s.Move(e.ID, e.Pos)
					}
					if err != nil {
						t.Fatalf("step %d: %v: %v", step, e.Kind, err)
					}
					requireObserveMatches(t, fmt.Sprintf("step %d (%v)", step, e.Kind), s)
				}
			})
		}
	}
}

// TestSessionObserveRestoreIdentity proves checkpoint→restore keeps
// Observe byte-identical: the restored session re-derives its
// maintained aggregates from the same graphs, so every field — floats
// included — must compare equal, before and after further events.
func TestSessionObserveRestoreIdentity(t *testing.T) {
	ctx := context.Background()
	for _, stack := range observeStacks {
		t.Run(stack.name, func(t *testing.T) {
			eng, err := New(stack.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(17, 3))
			s, err := eng.NewSession(ctx, workload.Uniform(rng, 60, 2000, 2000))
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the session so the maintained state is mid-flight,
			// not fresh-from-construction.
			s.Join(Point{X: 120, Y: 340})
			if _, err := s.Leave(3); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Move(7, Point{X: 900, Y: 1100}); err != nil {
				t.Fatal(err)
			}
			before, err := s.Observe()
			if err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := eng.RestoreSession(&buf)
			if err != nil {
				t.Fatal(err)
			}
			after, err := r.Observe()
			if err != nil {
				t.Fatal(err)
			}
			if before != after {
				t.Fatalf("restore changed Observe: before %+v, after %+v", before, after)
			}
			// The restored session keeps the O(changed) invariants as it
			// keeps moving.
			r.Join(Point{X: 55, Y: 66})
			if _, err := r.Leave(10); err != nil {
				t.Fatal(err)
			}
			requireObserveMatches(t, "post-restore events", r)
		})
	}
}

// TestFleetObserveConcurrent is the -race soak: Observe (per-session
// and fleet-wide) hammered from reader goroutines while the fleet
// scheduler is mid-run, with an ObserveHook installed.
func TestFleetObserveConcurrent(t *testing.T) {
	ctx := context.Background()
	sc := workload.Fleet(6, 40, "uniform")
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	members := make([]MemberSpec, 0, sc.M)
	for _, p := range sc.Placements(11) {
		members = append(members, MemberSpec{Placement: p})
	}
	var hookCalls int64
	var hookMu sync.Mutex
	fleet, err := eng.NewFleet(ctx, FleetConfig{
		Members: members,
		Seed:    11,
		Workers: 4,
		ObserveHook: func(net, tick int, ts TickStats) {
			if ts.Live <= 0 || ts.Components < 1 {
				panic(fmt.Sprintf("net %d tick %d: implausible stats %+v", net, tick, ts))
			}
			hookMu.Lock()
			hookCalls++
			hookMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r%2 == 0 {
					if _, err := fleet.Observe(); err != nil {
						t.Error(err)
						return
					}
				} else {
					sess := fleet.Session(i % sc.M)
					if _, err := sess.Observe(); err != nil {
						t.Error(err)
						return
					}
					sess.LiveCount()
				}
			}
		}(r)
	}
	if _, err := fleet.Run(ctx, 12, fleetTick(sc)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if hookCalls == 0 {
		t.Fatal("ObserveHook never fired")
	}
	// Quiescent cross-check: with ticking done, every member's Observe
	// must equal its reference, and the fleet aggregate must fold the
	// members exactly.
	var want TickStats
	var radiusSum, degreeSum float64
	for i := 0; i < sc.M; i++ {
		ts := referenceObserve(t, fleet.Session(i))
		requireObserveMatches(t, fmt.Sprintf("member %d", i), fleet.Session(i))
		want.Live += ts.Live
		want.Edges += ts.Edges
		want.Components += ts.Components
		want.Energy += ts.Energy
		radiusSum += ts.AvgRadius * float64(ts.Live)
		degreeSum += ts.AvgDegree * float64(ts.Live)
	}
	got, err := fleet.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if got.Live != want.Live || got.Edges != want.Edges || got.Components != want.Components {
		t.Fatalf("fleet Observe = %+v, folded members = %+v", got, want)
	}
}
