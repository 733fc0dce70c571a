package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// parallelTestPlacements returns placements large enough to clear the
// stay-serial floor, in both density regimes.
func parallelTestPlacements() map[string][]geom.Point {
	return map[string][]geom.Point{
		"uniform":   workload.Uniform(workload.Rand(3), 1500, 3000, 3000),
		"clustered": workload.Clustered(workload.Rand(4), 1500, 12, 260, 3000, 3000),
	}
}

// The tentpole determinism contract: RunParallel produces an Execution
// identical to the serial path at every worker count — same neighbors in
// the same order, same powers, same boundary flags, bit for bit.
func TestRunParallelDeterministic(t *testing.T) {
	m := radio.Default(500)
	for name, pos := range parallelTestPlacements() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			serial, err := RunContext(ctx, pos, m, AlphaConnectivity)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8, 0} {
				par, err := RunParallel(ctx, pos, m, AlphaConnectivity, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(serial, par) {
					for u := range serial.Nodes {
						if !reflect.DeepEqual(serial.Nodes[u], par.Nodes[u]) {
							t.Fatalf("workers=%d: node %d diverged:\nserial: %+v\npar:    %+v",
								workers, u, serial.Nodes[u], par.Nodes[u])
						}
					}
					t.Fatalf("workers=%d: executions diverged outside Nodes", workers)
				}
			}
			// The naive full-scan reference must agree too.
			naive, err := RunNaive(ctx, pos, m, AlphaConnectivity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, naive) {
				t.Fatal("serial grid path and naive reference diverged")
			}
		})
	}
}

// MaxPowerGraphParallel must build exactly the naive all-pairs graph at
// every worker count, on the power law and on the shadowed radio
// WithShadowing builds.
func TestMaxPowerGraphParallelEquivalence(t *testing.T) {
	shadowed, err := radio.NewLogDistance(radio.Default(500), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, pos := range parallelTestPlacements() {
		t.Run(name, func(t *testing.T) {
			for _, m := range []radio.Propagation{radio.Default(500), shadowed} {
				want := maxPowerGraphRef(pos, m)
				for _, workers := range []int{1, 2, 8} {
					if got := MaxPowerGraphParallel(pos, m, workers); !got.Equal(want) {
						t.Fatalf("pure %v, workers=%d: parallel G_R differs from the all-pairs reference", m.DistancePure(), workers)
					}
				}
			}
		})
	}
}

// A context that is already cancelled must abort the pool before any
// meaningful work, at every worker count.
func TestRunParallelPreCancelled(t *testing.T) {
	m := radio.Default(500)
	pos := workload.Uniform(workload.Rand(5), 2000, 3500, 3500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		exec, err := RunParallel(ctx, pos, m, AlphaConnectivity, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if exec != nil {
			t.Fatalf("workers=%d: partial execution escaped on cancellation", workers)
		}
	}
}

// Cancellation arriving mid-run must stop a wide worker pool promptly:
// every worker polls ctx on its own stride, so latency is one stride of
// per-node work, not workers × stride. The run must either finish clean
// or report exactly ctx.Err() with no partial output.
func TestRunParallelCancelledMidRun(t *testing.T) {
	m := radio.Default(500)
	pos := workload.Uniform(workload.Rand(6), 5000, 5600, 5600)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		exec *Execution
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		exec, err := RunParallel(ctx, pos, m, AlphaConnectivity, 8)
		done <- outcome{exec, err}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case out := <-done:
		switch {
		case out.err == nil:
			if out.exec == nil || len(out.exec.Nodes) != len(pos) {
				t.Fatal("clean finish without a complete execution")
			}
		case errors.Is(out.err, context.Canceled):
			if out.exec != nil {
				t.Fatal("partial execution escaped on cancellation")
			}
		default:
			t.Fatalf("unexpected error: %v", out.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool did not react to cancellation")
	}
}

// ParallelRange must call fn exactly once per index regardless of pool
// size, including the small ranges where the chunk shrinks to keep all
// workers busy.
func TestParallelRangeCoverage(t *testing.T) {
	for _, n := range []int{1, 17, 63, 64, 65, 640} {
		for _, workers := range []int{1, 2, 7, 16} {
			counts := make([]int32, n)
			err := ParallelRange(context.Background(), n, workers, func(_, i int) {
				counts[i]++
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}
