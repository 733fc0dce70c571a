package cbtc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cbtc/internal/workload"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
	}{
		{"no radius", nil},
		{"negative radius", []Option{WithMaxRadius(-5)}},
		{"alpha too big", []Option{WithMaxRadius(500), WithAlpha(7)}},
		{"asym above 2π/3", []Option{WithMaxRadius(500), WithAlpha(AlphaConnectivity), WithAsymmetricRemoval()}},
		{"bad exponent", []Option{WithMaxRadius(500), WithPathLoss(0.5)}},
		{"bad schedule factor", []Option{WithMaxRadius(500), WithShrinkBackSchedule(0.9)}},
		{"bad pairwise policy", []Option{WithMaxRadius(500), WithPairwiseRemoval(PairwisePolicy(42))}},
		{"negative workers", []Option{WithMaxRadius(500), WithWorkers(-1)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.opts...); !errors.Is(err, ErrBadConfig) {
				t.Errorf("New error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestNewDefaults(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	cfg := eng.Config()
	if cfg.Alpha != AlphaConnectivity {
		t.Errorf("default alpha = %v, want 5π/6", cfg.Alpha)
	}
	if m := eng.RadioModel(); m != (RadioModel{Exponent: 2, MaxRadius: 500, RefLoss: 1}) {
		t.Errorf("default radio = %+v, want exponent 2, R 500, unit reference loss", m)
	}
	if cfg.PairwisePolicy != 0 {
		t.Errorf("default pairwise policy reads %v, want 0", cfg.PairwisePolicy)
	}
	if eng.Alpha() != cfg.Alpha {
		t.Errorf("Alpha() = %v disagrees with Config().Alpha = %v", eng.Alpha(), cfg.Alpha)
	}
}

// WithAllOptimizations must compose with WithAlpha in either order,
// because it is resolved at New time.
func TestWithAllOptimizationsComposes(t *testing.T) {
	before, err := New(WithAllOptimizations(), WithAlpha(AlphaAsymmetric), WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	after, err := New(WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*Engine{before, after} {
		cfg := eng.Config()
		if !cfg.ShrinkBack || !cfg.PairwiseRemoval || !cfg.AsymmetricRemoval {
			t.Errorf("all-ops at 2π/3 must enable op1+op2+op3: %+v", cfg)
		}
	}
	// At the default 5π/6, asymmetric removal must stay off.
	def, err := New(WithMaxRadius(500), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	if def.Config().AsymmetricRemoval {
		t.Errorf("all-ops at 5π/6 must not enable asymmetric removal")
	}
}

// The §3.3 policy set by WithPairwiseRemoval must survive
// WithAllOptimizations, which used to be able to drop it.
func TestPairwisePolicyUnification(t *testing.T) {
	nodes := someNetwork(32, 80)
	ctx := context.Background()

	viaAll := paperEngine(t, WithPairwiseRemoval(PairwiseRemoveAll), WithAllOptimizations())
	if got := viaAll.Config().PairwisePolicy; got != PairwiseRemoveAll {
		t.Errorf("WithAllOptimizations kept policy %v, want remove-all", got)
	}
	resAll, err := viaAll.Run(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	resOpt, err := paperEngine(t, WithShrinkBack(), WithPairwiseRemoval(PairwiseRemoveAll)).Run(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !resAll.G.Equal(resOpt.G) {
		t.Errorf("the two policy spellings produced different topologies")
	}
	// remove-all must delete at least as many edges as the default rule.
	def, err := paperEngine(t, WithAllOptimizations()).Run(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(resAll.RemovedRedundant()) < len(def.RemovedRedundant()) {
		t.Errorf("remove-all removed fewer edges (%d) than length-filtered (%d)",
			len(resAll.RemovedRedundant()), len(def.RemovedRedundant()))
	}
}

// A single Engine must serve concurrent Run/Simulate/Baseline calls;
// run under -race this is the concurrency-safety test.
func TestEngineConcurrentUse(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := eng.Run(ctx, someNetwork(uint64(40+g), 50))
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := eng.Simulate(ctx, someNetwork(uint64(50+g), 20), SimOptions{Seed: uint64(g)})
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := eng.Baseline(BaselineRNG, someNetwork(uint64(60+g), 30))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunBatchMatchesSerial(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithAllOptimizations(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	placements := make([][]Point, 8)
	for i := range placements {
		placements[i] = someNetwork(uint64(70+i), 40)
	}
	ctx := context.Background()
	batch, err := eng.RunBatch(ctx, placements)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(placements) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(placements))
	}
	for i, pos := range placements {
		want, err := eng.Run(ctx, pos)
		if err != nil {
			t.Fatal(err)
		}
		if !batch[i].G.Equal(want.G) {
			t.Errorf("placement %d: batch topology differs from serial Run", i)
		}
	}
}

func TestRunBatchEmpty(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunBatch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

func TestRunBatchBadPlacement(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	nan := Pt(1, 1)
	nan.X = nan.X / 0 * 0 // NaN
	placements := [][]Point{someNetwork(1, 10), {nan}, someNetwork(2, 10)}
	if _, err := eng.RunBatch(context.Background(), placements); err == nil {
		t.Fatal("batch with an invalid placement must fail")
	}
}

func TestRunBatchPreCancelled(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	placements := [][]Point{someNetwork(1, 30), someNetwork(2, 30)}
	if _, err := eng.RunBatch(ctx, placements); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled batch error = %v, want context.Canceled", err)
	}
}

// Cancelling mid-run must abort the batch promptly and surface ctx.Err().
func TestRunBatchCancelledMidRun(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	// Enough work that the batch cannot finish before the cancellation
	// lands: 48 dense networks.
	placements := make([][]Point, 48)
	for i := range placements {
		placements[i] = workload.Uniform(workload.Rand(uint64(i)), 400, 1500, 1500)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.RunBatch(ctx, placements)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled batch error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("batch did not abort after cancellation (started %v ago)", time.Since(start))
	}
}

func TestEngineRunCancelled(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, someNetwork(1, 50)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Run error = %v, want context.Canceled", err)
	}
}

func TestEngineSimulateCancelled(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Simulate(ctx, someNetwork(2, 20), SimOptions{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Simulate error = %v, want context.Canceled", err)
	}
}

// RunTable1 must produce the same cells through the batched engines as
// the legacy serial implementation did; the fixture bands in
// table1_test.go check absolute calibration, this checks determinism.
func TestRunTable1Deterministic(t *testing.T) {
	a, err := RunTable1(Table1Params{Networks: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable1Context(context.Background(), Table1Params{Networks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.Cells {
		if a.Cells[ci] != b.Cells[ci] {
			t.Errorf("column %d: cells differ across runs: %+v vs %+v",
				ci, a.Cells[ci], b.Cells[ci])
		}
	}
}
