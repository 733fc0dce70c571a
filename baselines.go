package cbtc

import (
	"context"
	"fmt"

	"cbtc/internal/baseline"
	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
)

// BaselineKind selects one of the position-based topology-control
// comparators from the paper's related-work section (§1). Unlike CBTC,
// all of them require exact node positions.
type BaselineKind int

const (
	// BaselineRNG is the relative neighborhood graph (Toussaint).
	BaselineRNG BaselineKind = iota + 1
	// BaselineGabriel is the Gabriel graph.
	BaselineGabriel
	// BaselineYao6 is the Yao (θ-) graph with 6 sectors — the
	// position-based analogue of the cone condition, connectivity-safe.
	BaselineYao6
	// BaselineMinMaxRadius is the centralized minimum-maximum-radius
	// assignment in the spirit of Ramanathan & Rosales-Hain.
	BaselineMinMaxRadius
	// BaselineEnergyMST is the centralized energy-balanced spanner: the
	// minimum spanning forest of the maximum-power graph under per-link
	// transmit power as the edge weight. Engine.EnergyBaseline is the
	// residual-aware variant a lifetime workload reconfigures with.
	BaselineEnergyMST
)

// String implements fmt.Stringer.
func (k BaselineKind) String() string {
	switch k {
	case BaselineRNG:
		return "rng"
	case BaselineGabriel:
		return "gabriel"
	case BaselineYao6:
		return "yao6"
	case BaselineMinMaxRadius:
		return "minmax-radius"
	case BaselineEnergyMST:
		return "energy-mst"
	default:
		return fmt.Sprintf("BaselineKind(%d)", int(k))
	}
}

// BaselineKinds lists every implemented comparator.
func BaselineKinds() []BaselineKind {
	return []BaselineKind{BaselineRNG, BaselineGabriel, BaselineYao6, BaselineMinMaxRadius, BaselineEnergyMST}
}

// Baseline builds the selected position-based topology over the
// placement, restricted to the engine's maximum-power graph. The Result
// carries the same metrics as a CBTC run, so the comparators slot into
// the same analyses. The engine's optimization stack does not apply —
// baselines have their own construction rules — but its propagation
// model does: on a shadowed engine the comparators see the same
// realized link set as the protocol.
func (e *Engine) Baseline(kind BaselineKind, nodes []Point) (*Result, error) {
	if err := core.ValidatePositions(nodes); err != nil {
		return nil, err
	}
	return e.baselineIndexed(kind, nodes, baseline.NewPropagationIndex(nodes, e.prop))
}

// EnergyBaseline builds the energy-balanced spanning forest for a
// lifetime workload: the MST of the maximum-power graph under edge
// weight p(u,v)/min(residual[u], residual[v]) — transmit power paid per
// unit of the poorer endpoint's remaining energy — so links between
// drained nodes price themselves out and the forest reroutes around
// them. residual must hold one entry per node; a nil residual weighs by
// transmit power alone, which is exactly Baseline(BaselineEnergyMST,
// nodes). Nodes with no positive residual take no edges at all.
func (e *Engine) EnergyBaseline(nodes []Point, residual []float64) (*Result, error) {
	if residual != nil && len(residual) != len(nodes) {
		return nil, fmt.Errorf("%w: %d residuals for %d nodes", ErrBadConfig, len(residual), len(nodes))
	}
	if err := core.ValidatePositions(nodes); err != nil {
		return nil, err
	}
	ix := baseline.NewPropagationIndex(nodes, e.prop)
	return baselineResultWithGR(nodes, e.model, ix.EnergyMST(residual), ix.MaxPowerGraph()), nil
}

// baselineIndexed builds one comparator from a caller-shared index, whose
// G_R is the Result's ground truth (CompareBaselines builds the index
// once per placement and shares it across rows).
func (e *Engine) baselineIndexed(kind BaselineKind, nodes []Point, ix *baseline.Index) (*Result, error) {
	var g *graph.Graph
	var err error
	switch kind {
	case BaselineRNG:
		g = ix.RNG()
	case BaselineGabriel:
		g = ix.Gabriel()
	case BaselineYao6:
		g, err = ix.YaoSymmetric(6)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	case BaselineMinMaxRadius:
		g, _ = ix.MinMaxRadius()
	case BaselineEnergyMST:
		g = ix.EnergyMST(nil)
	default:
		return nil, fmt.Errorf("%w: unknown baseline %v", ErrBadConfig, kind)
	}
	return baselineResultWithGR(nodes, e.model, g, ix.MaxPowerGraph()), nil
}

// BetaSkeleton builds the lune-based β-skeleton over the placement for
// β ≥ 1 — the G_β family the paper cites alongside the RNG (β = 2) and
// the Gabriel graph (β = 1). Connectivity of the max-power graph is
// preserved for β ≤ 2 (the skeleton then contains the Euclidean MST).
func (e *Engine) BetaSkeleton(beta float64, nodes []Point) (*Result, error) {
	if err := core.ValidatePositions(nodes); err != nil {
		return nil, err
	}
	ix := baseline.NewPropagationIndex(nodes, e.prop)
	g, err := ix.BetaSkeleton(beta)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return baselineResultWithGR(nodes, e.model, g, ix.MaxPowerGraph()), nil
}

func baselineResultWithGR(nodes []Point, m radio.Model, g, gr *graph.Graph) *Result {
	n := len(nodes)
	res := &Result{
		G:        g,
		GR:       gr,
		Pos:      append([]Point(nil), nodes...),
		Radii:    make([]float64, n),
		Powers:   make([]float64, n),
		Boundary: make([]bool, n),
		model:    m,
	}
	for u := 0; u < n; u++ {
		res.Radii[u] = graph.NodeRadius(g, nodes, u)
		res.Powers[u] = m.PowerFor(res.Radii[u])
	}
	res.AvgDegree = graph.AvgDegree(g)
	var sum float64
	for _, r := range res.Radii {
		sum += r
	}
	if n > 0 {
		res.AvgRadius = sum / float64(n)
	}
	return res
}

// ComparisonRow is one topology in a CompareBaselines report.
type ComparisonRow struct {
	// Name labels the topology.
	Name string
	// NeedsPositions reports whether the construction requires exact
	// coordinates (every baseline does; CBTC does not).
	NeedsPositions bool
	// Result carries the topology and its metrics.
	Result *Result
}

// CompareBaselines runs CBTC (max power, basic 5π/6, all-ops at both
// cone angles) next to every position-based comparator on the same
// placement, on the free-space radio of maximum radius maxRadius,
// fanning the independent constructions across the batch worker pool.
//
// The position-based rows share one index built up front for the
// placement — its spatial grid and its ground-truth G_R — so the per-row
// cost is the construction itself, not repeated quadratic scans; the
// returned baseline Results consequently share their GR graph (callers
// must not mutate it).
func CompareBaselines(ctx context.Context, nodes []Point, maxRadius float64) ([]ComparisonRow, error) {
	if err := core.ValidatePositions(nodes); err != nil {
		return nil, err
	}
	kinds := BaselineKinds()
	plan := planShards(0, 4+len(kinds)) // four CBTC rows, then the comparators
	// Row engines run inside the shard pool: give each the plan's inner
	// budget, not a full GOMAXPROCS pool of its own.
	base, err := New(WithMaxRadius(maxRadius), WithWorkers(plan.inner))
	if err != nil {
		return nil, err
	}
	ix := baseline.NewPropagationIndex(nodes, base.prop)

	type spec struct {
		name           string
		needsPositions bool
		opts           []Option // layered over base
		run            func(ctx context.Context, eng *Engine) (*Result, error)
	}
	runCBTC := func(ctx context.Context, eng *Engine) (*Result, error) {
		return eng.Run(ctx, nodes)
	}
	specs := []spec{
		{"max power", false, nil, func(_ context.Context, eng *Engine) (*Result, error) {
			return eng.MaxPower(nodes)
		}},
		{"CBTC basic 5π/6", false, nil, runCBTC},
		{"CBTC all-ops 5π/6", false, []Option{WithAllOptimizations()}, runCBTC},
		{"CBTC all-ops 2π/3", false, []Option{WithAlpha(AlphaAsymmetric), WithAllOptimizations()}, runCBTC},
	}
	for _, kind := range kinds {
		specs = append(specs, spec{kind.String() + " (positions)", true, nil,
			func(_ context.Context, eng *Engine) (*Result, error) {
				return eng.baselineIndexed(kind, nodes, ix)
			}})
	}

	rows := make([]ComparisonRow, len(specs))
	err = plan.run(ctx, len(specs), func(ctx context.Context, i int) error {
		sp := specs[i]
		eng, err := base.derive(sp.opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		res, err := sp.run(ctx, eng)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		rows[i] = ComparisonRow{Name: sp.name, NeedsPositions: sp.needsPositions, Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
