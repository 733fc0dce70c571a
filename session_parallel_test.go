package cbtc

import (
	"context"
	"testing"

	"cbtc/internal/workload"
)

// TestSessionParallelRepairSoak drives a dense session — affected
// regions well past the parallel-repair threshold — through a long mixed
// Join/Leave/Move stream with an 8-worker pool, checking the maintained
// fixed point (including the incrementally-patched arcs, symmetric graph
// and ground-truth G_R) against a fresh run at checkpoints. CI runs it
// under -race, which is what makes the phase-1 fan-out trustworthy.
func TestSessionParallelRepairSoak(t *testing.T) {
	stacks := []struct {
		name string
		opts []Option
	}{
		{"basic", []Option{WithMaxRadius(300), WithWorkers(8)}},
		{"shrink", []Option{WithMaxRadius(300), WithShrinkBack(), WithWorkers(8)}},
		{"auto-workers", []Option{WithMaxRadius(300), WithShrinkBack()}},
	}
	for _, st := range stacks {
		st := st
		t.Run(st.name, func(t *testing.T) {
			eng, err := New(st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			// ~500 nodes at a density putting ~35 live nodes inside every
			// radius-R disc: every Move repair fans out across the pool.
			pos := workload.Uniform(workload.Rand(31), 500, 1500, 1500)
			sess, err := eng.NewSession(context.Background(), pos)
			if err != nil {
				t.Fatal(err)
			}
			rng := workload.Rand(77)
			for step := 0; step < 60; step++ {
				switch step % 4 {
				case 0, 1: // moves dominate mobility workloads
					ids, _ := sessionLiveMap(sess)
					id := ids[rng.IntN(len(ids))]
					if _, err := sess.Move(id, Pt(rng.Float64()*1500, rng.Float64()*1500)); err != nil {
						t.Fatal(err)
					}
				case 2:
					sess.Join(Pt(rng.Float64()*1500, rng.Float64()*1500))
				case 3:
					ids, _ := sessionLiveMap(sess)
					if _, err := sess.Leave(ids[rng.IntN(len(ids))]); err != nil {
						t.Fatal(err)
					}
				}
				if step%10 == 9 {
					requireSessionMatchesFreshRun(t, eng, sess)
				}
			}
			requireSessionMatchesFreshRun(t, eng, sess)
		})
	}
}

// Worker count must never leak into repaired state: the same event
// stream applied under 1 worker and 8 workers yields identical
// snapshots, with and without pairwise removal.
func TestSessionRepairWorkerCountInvariance(t *testing.T) {
	for _, stack := range [][]Option{
		{WithMaxRadius(300), WithShrinkBack()},
		{WithMaxRadius(300), WithAllOptimizations()},
	} {
		requireWorkerCountInvariant(t, stack)
	}
}

func requireWorkerCountInvariant(t *testing.T, stack []Option) {
	t.Helper()
	run := func(workers int) *Result {
		eng, err := New(append([]Option{WithWorkers(workers)}, stack...)...)
		if err != nil {
			t.Fatal(err)
		}
		pos := workload.Uniform(workload.Rand(9), 400, 1400, 1400)
		sess, err := eng.NewSession(context.Background(), pos)
		if err != nil {
			t.Fatal(err)
		}
		rng := workload.Rand(13)
		for step := 0; step < 24; step++ {
			ids, _ := sessionLiveMap(sess)
			id := ids[rng.IntN(len(ids))]
			if _, err := sess.Move(id, Pt(rng.Float64()*1400, rng.Float64()*1400)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	serial, parallel := run(1), run(8)
	if len(serial.Pos) != len(parallel.Pos) {
		t.Fatal("placement sizes diverged")
	}
	for u := range serial.Pos {
		if serial.Powers[u] != parallel.Powers[u] || serial.Boundary[u] != parallel.Boundary[u] ||
			serial.Radii[u] != parallel.Radii[u] {
			t.Fatalf("node %d state diverged between worker counts", u)
		}
	}
	if !serial.G.Equal(parallel.G) || !serial.GR.Equal(parallel.GR) {
		t.Fatal("graphs diverged between worker counts")
	}
}
