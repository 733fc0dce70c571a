package cbtc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"cbtc/internal/workload"
)

func TestRunBaselineKinds(t *testing.T) {
	nodes := someNetwork(20, 80)
	eng := paperEngine(t)
	for _, kind := range BaselineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res, err := eng.Baseline(kind, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if !res.PreservesConnectivity() {
				t.Errorf("%v must preserve the G_R partition", kind)
			}
			if !res.G.IsSubgraphOf(res.GR) {
				t.Errorf("%v must be a subgraph of G_R", kind)
			}
			if res.AvgDegree <= 0 || res.AvgRadius <= 0 {
				t.Errorf("%v produced empty metrics", kind)
			}
			for u, rad := range res.Radii {
				if math.Abs(res.Powers[u]-res.PowerCost(rad)) > 1e-6 {
					t.Errorf("%v node %d: power/radius inconsistent", kind, u)
				}
			}
		})
	}
}

// Two nodes a hair farther apart than R, inside the max-power link rule's
// relative tolerance, are G_R neighbors, and Engine.Run links them. Every
// comparator runs over that same G_R, so each must keep the link too.
func TestBaselinesKeepBoundaryLink(t *testing.T) {
	nodes := []Point{{X: 0, Y: 0}, {X: 1 + 8e-13, Y: 0}}
	eng, err := New(WithMaxRadius(1))
	if err != nil {
		t.Fatal(err)
	}
	requireLink := func(what string, res *Result) {
		t.Helper()
		if res.GR.EdgeCount() != 1 || res.G.EdgeCount() != 1 {
			t.Errorf("%s: G has %d edges over a G_R of %d, want the one boundary link in both",
				what, res.G.EdgeCount(), res.GR.EdgeCount())
		}
	}
	run, err := eng.Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	requireLink("Run", run)
	for _, kind := range BaselineKinds() {
		res, err := eng.Baseline(kind, nodes)
		if err != nil {
			t.Fatal(err)
		}
		requireLink(kind.String(), res)
	}
	for _, beta := range []float64{1, 2} {
		res, err := eng.BetaSkeleton(beta, nodes)
		if err != nil {
			t.Fatal(err)
		}
		requireLink(fmt.Sprintf("BetaSkeleton(%v)", beta), res)
	}
}

func TestRunBaselineUnknownKind(t *testing.T) {
	if _, err := paperEngine(t).Baseline(BaselineKind(99), someNetwork(1, 5)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
	if got := BaselineKind(99).String(); got != "BaselineKind(99)" {
		t.Errorf("String = %q", got)
	}
}

// CompareBaselines lists the four CBTC rows and then one row per
// comparator, and every row equals the same construction on a
// standalone Engine of the given radius.
func TestCompareBaselines(t *testing.T) {
	nodes := someNetwork(26, 80)
	ctx := context.Background()
	rows, err := CompareBaselines(ctx, nodes, workload.PaperRadius)
	if err != nil {
		t.Fatal(err)
	}
	eng := paperEngine(t)
	runOn := func(eng *Engine) *Result {
		t.Helper()
		res, err := eng.Run(ctx, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	maxp, err := eng.MaxPower(nodes)
	if err != nil {
		t.Fatal(err)
	}
	type wantRow struct {
		name string
		res  *Result
	}
	want := []wantRow{
		{"max power", maxp},
		{"CBTC basic 5π/6", runOn(eng)},
		{"CBTC all-ops 5π/6", runOn(paperEngine(t, WithAllOptimizations()))},
		{"CBTC all-ops 2π/3", runOn(paperEngine(t, WithAlpha(AlphaAsymmetric), WithAllOptimizations()))},
	}
	for _, kind := range BaselineKinds() {
		res, err := eng.Baseline(kind, nodes)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, wantRow{kind.String() + " (positions)", res})
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		if row.Name != want[i].name || row.NeedsPositions != (i >= 4) {
			t.Fatalf("row %d = %q (positions %v), want %q", i, row.Name, row.NeedsPositions, want[i].name)
		}
		t.Run(row.Name, func(t *testing.T) { requireResultsIdentical(t, want[i].res, row.Result) })
	}
	if _, err := CompareBaselines(ctx, nodes, -1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative radius: got %v, want ErrBadConfig", err)
	}
}

// The comparison the paper's related-work discussion implies: CBTC with
// all optimizations achieves degree and radius in the same class as the
// position-based constructions, without any position information.
func TestCBTCCompetitiveWithBaselines(t *testing.T) {
	nodes := someNetwork(21, 100)
	cbtcRes, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := paperEngine(t).Baseline(BaselineRNG, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Within a factor 2 of RNG on both metrics (empirically ~1.1-1.3).
	if cbtcRes.AvgDegree > 2*rng.AvgDegree {
		t.Errorf("CBTC degree %v not competitive with RNG %v", cbtcRes.AvgDegree, rng.AvgDegree)
	}
	if cbtcRes.AvgRadius > 2*rng.AvgRadius {
		t.Errorf("CBTC radius %v not competitive with RNG %v", cbtcRes.AvgRadius, rng.AvgRadius)
	}
}

// The min-max-radius baseline is optimal for the max-radius objective;
// nothing beats its bottleneck.
func TestMinMaxRadiusOptimality(t *testing.T) {
	nodes := someNetwork(22, 60)
	mm, err := paperEngine(t).Baseline(BaselineMinMaxRadius, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cbtcRes, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	bottleneck := cbtcRes.BottleneckRadius()
	if mm.MaxRadius() < bottleneck-1e-9 {
		t.Errorf("min-max baseline %v beat the bottleneck %v (impossible)", mm.MaxRadius(), bottleneck)
	}
	if cbtcRes.MaxRadius() < bottleneck-1e-9 {
		t.Errorf("CBTC max radius %v beat the bottleneck %v (impossible)", cbtcRes.MaxRadius(), bottleneck)
	}
}

func TestInterferenceReduction(t *testing.T) {
	nodes := someNetwork(23, 100)
	maxp, err := paperEngine(t).MaxPower(nodes)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if opt.AvgInterference() >= maxp.AvgInterference() {
		t.Errorf("topology control must reduce interference: %v vs %v",
			opt.AvgInterference(), maxp.AvgInterference())
	}
	if opt.MaxInterference() > maxp.MaxInterference() {
		t.Errorf("max interference must not grow: %v vs %v",
			opt.MaxInterference(), maxp.MaxInterference())
	}
}

func TestDiameterGrowsUnderSparsification(t *testing.T) {
	nodes := someNetwork(24, 100)
	maxp, err := paperEngine(t).MaxPower(nodes)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := paperEngine(t, WithAllOptimizations()).Run(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Diameter() < maxp.Diameter() {
		t.Errorf("removing edges cannot shrink the diameter: %d vs %d",
			opt.Diameter(), maxp.Diameter())
	}
	if opt.Diameter() == 0 {
		t.Errorf("connected 100-node topology must have a positive diameter")
	}
}

func TestBiconnectivityReporting(t *testing.T) {
	// A dense clique-ish placement is biconnected at max power.
	nodes := []Point{Pt(0, 0), Pt(100, 0), Pt(50, 80), Pt(60, 30)}
	maxp, err := paperEngine(t).MaxPower(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !maxp.IsBiconnected() {
		t.Errorf("4-clique must be biconnected")
	}
	if pts := maxp.ArticulationPoints(); len(pts) != 0 {
		t.Errorf("clique has no articulation points, got %v", pts)
	}
	// A chain is connected but not biconnected; every interior node cuts.
	chain := []Point{Pt(0, 0), Pt(400, 0), Pt(800, 0), Pt(1200, 0)}
	res, err := paperEngine(t).Run(context.Background(), chain)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsBiconnected() {
		t.Errorf("chain must not be biconnected")
	}
	if pts := res.ArticulationPoints(); len(pts) != 2 {
		t.Errorf("chain articulation points = %v, want the 2 interior nodes", pts)
	}
}

func TestRunBetaSkeletonPublicAPI(t *testing.T) {
	nodes := someNetwork(25, 60)
	eng := paperEngine(t)
	gg, err := eng.Baseline(BaselineGabriel, nodes)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := eng.BetaSkeleton(1, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !b1.G.Equal(gg.G) {
		t.Errorf("β=1 skeleton must equal the Gabriel graph")
	}
	rng, err := eng.Baseline(BaselineRNG, nodes)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := eng.BetaSkeleton(2, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.G.Equal(rng.G) {
		t.Errorf("β=2 skeleton must equal the RNG")
	}
	if !b2.PreservesConnectivity() {
		t.Errorf("β=2 skeleton must preserve connectivity")
	}
	if _, err := eng.BetaSkeleton(0.5, nodes); !errors.Is(err, ErrBadConfig) {
		t.Errorf("β < 1 must be rejected, got %v", err)
	}
}
