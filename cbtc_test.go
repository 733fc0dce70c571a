package cbtc

import (
	"context"
	"errors"
	"math"
	"testing"

	"cbtc/internal/workload"
)

// paperEngine builds an Engine on the paper's radius R = 500 with opts
// layered on top.
func paperEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	eng, err := New(append([]Option{WithMaxRadius(workload.PaperRadius)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func someNetwork(seed uint64, n int) []Point {
	return workload.Uniform(workload.Rand(seed), n, 1500, 1500)
}

func TestRunDefaults(t *testing.T) {
	nodes := someNetwork(1, 60)
	res, err := paperEngine(t).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.G.Len() != 60 || len(res.Radii) != 60 || len(res.Powers) != 60 {
		t.Fatalf("result shape wrong")
	}
	if !res.PreservesConnectivity() {
		t.Errorf("default α=5π/6 must preserve connectivity")
	}
	if !res.G.IsSubgraphOf(res.GR) {
		t.Errorf("G must be a subgraph of GR")
	}
	if res.AvgDegree <= 0 || res.AvgRadius <= 0 {
		t.Errorf("empty metrics: %+v", res)
	}
	for u, r := range res.Radii {
		if r > workload.PaperRadius*(1+1e-9) {
			t.Errorf("node %d radius %v exceeds R", u, r)
		}
		if res.Powers[u] <= 0 || res.Powers[u] > res.PowerCost(workload.PaperRadius)*(1+1e-9) {
			t.Errorf("node %d power %v out of range", u, res.Powers[u])
		}
	}
}

// TestRunConfigValidation: a bad radius, α or exponent is refused when
// New assembles the engine, so no engine exists to run with it.
func TestRunConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
	}{
		{"zero radius", []Option{WithMaxRadius(0)}},
		{"negative radius", []Option{WithMaxRadius(-5)}},
		{"alpha too big", []Option{WithMaxRadius(500), WithAlpha(7)}},
		{"nan alpha", []Option{WithMaxRadius(500), WithAlpha(math.NaN())}},
		{"asym above 2π/3", []Option{WithMaxRadius(500), WithAlpha(AlphaConnectivity), WithAsymmetricRemoval()}},
		{"bad exponent", []Option{WithMaxRadius(500), WithPathLoss(0.5)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			eng, err := New(tt.opts...)
			if !errors.Is(err, ErrBadConfig) {
				t.Errorf("New error = %v, want ErrBadConfig", err)
			}
			if eng != nil {
				t.Errorf("New returned an engine alongside %v", err)
			}
		})
	}
}

func TestAllOptimizations(t *testing.T) {
	eng := paperEngine(t, WithAllOptimizations())
	cfg := eng.Config()
	if !cfg.ShrinkBack || !cfg.PairwiseRemoval {
		t.Errorf("WithAllOptimizations must enable op1 and op3")
	}
	if cfg.AsymmetricRemoval {
		t.Errorf("asym removal must stay off at the default α=5π/6")
	}
	if !paperEngine(t, WithAlpha(AlphaAsymmetric), WithAllOptimizations()).Config().AsymmetricRemoval {
		t.Errorf("asym removal must be on at α=2π/3")
	}
	if _, err := eng.Run(context.Background(), someNetwork(3, 40)); err != nil {
		t.Errorf("all-optimizations run failed: %v", err)
	}
}

func TestOptimizationsReducePower(t *testing.T) {
	nodes := someNetwork(4, 80)
	basic, err := paperEngine(t).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	full, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if full.AvgRadius >= basic.AvgRadius {
		t.Errorf("optimizations must reduce average radius: %v >= %v", full.AvgRadius, basic.AvgRadius)
	}
	if full.AvgDegree >= basic.AvgDegree {
		t.Errorf("optimizations must reduce average degree: %v >= %v", full.AvgDegree, basic.AvgDegree)
	}
	if !full.PreservesConnectivity() {
		t.Errorf("optimized topology must preserve connectivity")
	}
}

func TestMaxPowerTopology(t *testing.T) {
	nodes := someNetwork(5, 50)
	res, err := paperEngine(t).MaxPower(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.G.Equal(res.GR) {
		t.Errorf("baseline topology must be GR itself")
	}
	if res.AvgRadius != workload.PaperRadius {
		t.Errorf("baseline radius = %v, want R", res.AvgRadius)
	}
	if res.BeaconPower(0) != res.PowerCost(workload.PaperRadius) {
		t.Errorf("baseline beacon power must be max power")
	}
	if res.BoundaryCount() != 0 {
		t.Errorf("baseline has no boundary concept")
	}
}

func TestSimulateMatchesRunShape(t *testing.T) {
	nodes := someNetwork(6, 35)
	ran, err := paperEngine(t).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := paperEngine(t).Simulate(context.Background(), nodes, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.PreservesConnectivity() {
		t.Errorf("simulated topology must preserve connectivity")
	}
	// The protocol discovers a superset: every oracle edge is present.
	if !ran.G.IsSubgraphOf(sim.G) {
		t.Errorf("oracle topology must be contained in the simulated one")
	}
	for u := range nodes {
		if sim.Powers[u] < ran.Powers[u]-1e-6 {
			t.Errorf("node %d: simulated power below the oracle minimum", u)
		}
	}
}

func TestSimulateFineSchedule(t *testing.T) {
	nodes := someNetwork(7, 30)
	sim, err := paperEngine(t).Simulate(context.Background(), nodes, SimOptions{Seed: 2, IncreaseFactor: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	ran, err := paperEngine(t).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for u := range nodes {
		if sim.Powers[u] > ran.Powers[u]*1.051 && sim.Powers[u] > sim.PowerCost(500)/1024*1.051 {
			t.Errorf("node %d: fine-schedule power %v too far above oracle %v",
				u, sim.Powers[u], ran.Powers[u])
		}
	}
}

func TestSimulateLossyStillConnected(t *testing.T) {
	nodes := someNetwork(8, 30)
	sim, err := paperEngine(t).Simulate(context.Background(), nodes, SimOptions{
		Seed:     3,
		Jitter:   0.5,
		DupProb:  0.1,
		AoANoise: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.PreservesConnectivity() {
		t.Errorf("jitter/duplication/noise must not break connectivity")
	}
}

func TestSimulateBadIncrease(t *testing.T) {
	if _, err := paperEngine(t).Simulate(context.Background(), someNetwork(9, 5), SimOptions{IncreaseFactor: 0.5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

func TestStretchMetrics(t *testing.T) {
	nodes := someNetwork(10, 50)
	res, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	ps, ds, hs := res.PowerStretch(), res.DistanceStretch(), res.HopStretch()
	if math.IsInf(ps, 1) || math.IsInf(ds, 1) || math.IsInf(hs, 1) {
		t.Fatalf("stretch infinite despite preserved connectivity: %v %v %v", ps, ds, hs)
	}
	for name, v := range map[string]float64{"power": ps, "distance": ds, "hop": hs} {
		if v < 1 {
			t.Errorf("%s stretch %v below 1", name, v)
		}
	}
	// Subgraph routes can't be shorter, and removing edges can't help
	// the baseline: identity case.
	self, err := paperEngine(t).MaxPower(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if got := self.PowerStretch(); math.Abs(got-1) > 1e-9 {
		t.Errorf("baseline power stretch = %v, want 1", got)
	}
}

func TestRemovedRedundantReporting(t *testing.T) {
	nodes := someNetwork(11, 80)
	res, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	removed := res.RemovedRedundant()
	if len(removed) == 0 {
		t.Errorf("a dense network must yield removed redundant edges")
	}
	for _, e := range removed {
		if res.G.HasEdge(e.U, e.V) {
			t.Errorf("removed edge %v still present", e)
		}
	}
	basic, err := paperEngine(t).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(basic.RemovedRedundant()) != 0 {
		t.Errorf("basic run must not remove redundant edges")
	}
}

func TestBeaconPowerPublicAPI(t *testing.T) {
	nodes := someNetwork(12, 60)
	res, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	maxP := res.PowerCost(workload.PaperRadius)
	for u := range nodes {
		bp := res.BeaconPower(u)
		if bp <= 0 || bp > maxP*(1+1e-9) {
			t.Errorf("node %d beacon power %v out of (0, P]", u, bp)
		}
		if res.Boundary[u] && bp < maxP*(1-1e-9) {
			t.Errorf("boundary node %d must beacon at max power under shrink-back", u)
		}
	}
}

func TestPtHelper(t *testing.T) {
	p := Pt(3, 4)
	if p.X != 3 || p.Y != 4 {
		t.Errorf("Pt = %v", p)
	}
}

func TestSimulateWithAsymmetricRemoval(t *testing.T) {
	nodes := someNetwork(14, 30)
	eng := paperEngine(t, WithAlpha(AlphaAsymmetric), WithAsymmetricRemoval(), WithShrinkBack())
	sim, err := eng.Simulate(context.Background(), nodes, SimOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.PreservesConnectivity() {
		t.Errorf("simulated asymmetric removal must preserve connectivity")
	}
	// The mutual graph is a subgraph of what the closure would give.
	closure, err := paperEngine(t, WithAlpha(AlphaAsymmetric), WithShrinkBack()).Simulate(context.Background(), nodes, SimOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.G.IsSubgraphOf(closure.G) {
		t.Errorf("E⁻_α must be a subgraph of E_α")
	}
}
