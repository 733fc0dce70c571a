package cbtc

import (
	"context"
	"fmt"

	"cbtc/internal/core"
	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

// Table1Params configures the reproduction of the paper's Table 1.
// The zero value reproduces the paper's setup: 100 networks of 100 nodes
// in a 1500×1500 region with maximum radius 500.
type Table1Params struct {
	Networks  int
	Nodes     int
	Width     float64
	Height    float64
	MaxRadius float64
	Seed      uint64
}

func (p Table1Params) withDefaults() Table1Params {
	if p.Networks == 0 {
		p.Networks = 100
	}
	if p.Nodes == 0 {
		p.Nodes = workload.PaperNodes
	}
	if p.Width == 0 {
		p.Width = workload.PaperRegionW
	}
	if p.Height == 0 {
		p.Height = workload.PaperRegionH
	}
	if p.MaxRadius == 0 {
		p.MaxRadius = workload.PaperRadius
	}
	return p
}

// placements draws the random networks of the experiment, one per seed
// offset, so every driver shares the same sampling rule.
func (p Table1Params) placements() [][]Point {
	out := make([][]Point, p.Networks)
	for i := range out {
		out[i] = workload.Uniform(workload.Rand(p.Seed+uint64(i)), p.Nodes, p.Width, p.Height)
	}
	return out
}

// Table1Column is one column of the paper's Table 1: an optimization
// stack at a cone angle, plus the values the paper reports for it.
type Table1Column struct {
	// Name is the column label, matching the paper's header.
	Name string
	// Alpha is the cone angle; 0 marks the max-power baseline.
	Alpha float64
	// Opts is the optimization stack (ignored for the baseline).
	Opts core.Options
	// MaxPower marks the no-topology-control baseline column.
	MaxPower bool
	// PaperDegree and PaperRadius are the values published in Table 1.
	PaperDegree, PaperRadius float64
}

// Table1Columns returns the eight columns of the paper's Table 1, in
// print order (op1 = shrink-back, op2 = asymmetric edge removal,
// op3 = pairwise edge removal).
func Table1Columns() []Table1Column {
	op1 := core.Options{ShrinkBack: true}
	op12 := core.Options{ShrinkBack: true, AsymmetricRemoval: true}
	all56 := core.Options{ShrinkBack: true, PairwiseRemoval: true}
	all23 := core.Options{ShrinkBack: true, AsymmetricRemoval: true, PairwiseRemoval: true}
	return []Table1Column{
		{Name: "basic α=5π/6", Alpha: AlphaConnectivity, PaperDegree: 12.3, PaperRadius: 436.8},
		{Name: "basic α=2π/3", Alpha: AlphaAsymmetric, PaperDegree: 15.4, PaperRadius: 457.4},
		{Name: "op1 α=5π/6", Alpha: AlphaConnectivity, Opts: op1, PaperDegree: 10.3, PaperRadius: 373.7},
		{Name: "op1 α=2π/3", Alpha: AlphaAsymmetric, Opts: op1, PaperDegree: 12.8, PaperRadius: 398.1},
		{Name: "op1+op2 α=2π/3", Alpha: AlphaAsymmetric, Opts: op12, PaperDegree: 7.0, PaperRadius: 276.8},
		{Name: "all α=5π/6", Alpha: AlphaConnectivity, Opts: all56, PaperDegree: 3.6, PaperRadius: 155.9},
		{Name: "all α=2π/3", Alpha: AlphaAsymmetric, Opts: all23, PaperDegree: 3.6, PaperRadius: 160.6},
		{Name: "max power", MaxPower: true, PaperDegree: 25.6, PaperRadius: 500},
	}
}

// Table1Cell is a measured (degree, radius) pair for one column.
type Table1Cell struct {
	AvgDegree float64
	AvgRadius float64
}

// Table1Result is the measured reproduction of Table 1.
type Table1Result struct {
	Params  Table1Params
	Columns []Table1Column
	// Cells holds the per-column measurements averaged over all
	// generated networks, aligned with Columns.
	Cells []Table1Cell
}

// RunTable1 regenerates the paper's Table 1 with a background context;
// see RunTable1Context.
func RunTable1(params Table1Params) (*Table1Result, error) {
	return RunTable1Context(context.Background(), params)
}

// RunTable1Context regenerates the paper's Table 1: it draws
// Params.Networks random networks, runs every optimization stack on
// each, and averages the degree and radius statistics.
//
// The networks are independent, so the experiment is embarrassingly
// parallel: one Engine per cone angle pushes all placements through
// Engine.RunBatch (the growing phase is shared across the stacks at the
// same α, as it does not depend on the optimizations), and the
// optimization stacks are then derived per network on the same worker
// pool. Cancelling ctx aborts the run.
func RunTable1Context(ctx context.Context, params Table1Params) (*Table1Result, error) {
	p := params.withDefaults()
	placements := p.placements()
	cols := Table1Columns()

	// The paper's simulation ran the discrete protocol of Figure 1, whose
	// shrink-back operates on whole power levels of the growth schedule;
	// the engines quantize the oracle's exact tags to a schedule of the
	// same granularity so op1 matches. The factor is calibrated against
	// the published op1 row (doubling is slightly too coarse, exact tags
	// slightly too fine; see EXPERIMENTS.md).
	engines := map[float64]*Engine{}
	basics := map[float64][]*Result{}
	var anyEngine *Engine
	for _, col := range cols {
		if col.MaxPower {
			continue
		}
		if _, ok := engines[col.Alpha]; ok {
			continue
		}
		eng, err := New(
			WithMaxRadius(p.MaxRadius),
			WithAlpha(col.Alpha),
			WithShrinkBackSchedule(table1ScheduleFactor),
		)
		if err != nil {
			return nil, err
		}
		batch, err := eng.RunBatch(ctx, placements)
		if err != nil {
			return nil, err
		}
		engines[col.Alpha] = eng
		basics[col.Alpha] = batch
		anyEngine = eng
	}

	// Derive every optimization stack from the shared executions, still
	// fanned across the worker pool. Per-network cells are accumulated
	// into fixed slots so the averaging order — and hence the result —
	// is deterministic regardless of scheduling.
	cells := make([][]Table1Cell, len(cols))
	for ci := range cells {
		cells[ci] = make([]Table1Cell, p.Networks)
	}
	plan := planShards(0, p.Networks)
	// The only nested parallelism in the fan-out is MaxPower's G_R
	// build; pin a copy of the engine to the plan's inner budget so the
	// shard pool isn't multiplied by GOMAXPROCS radius queries.
	mpEngine := anyEngine.withWorkers(plan.inner)
	err := plan.run(ctx, p.Networks, func(ctx context.Context, net int) error {
		for ci, col := range cols {
			switch {
			case col.MaxPower:
				res, err := mpEngine.MaxPower(placements[net])
				if err != nil {
					return err
				}
				cells[ci][net] = Table1Cell{AvgDegree: res.AvgDegree, AvgRadius: res.AvgRadius}
			case col.Opts == (core.Options{}):
				base := basics[col.Alpha][net]
				cells[ci][net] = Table1Cell{AvgDegree: base.AvgDegree, AvgRadius: base.AvgRadius}
			default:
				topo, err := core.BuildTopology(basics[col.Alpha][net].topo.Exec, col.Opts)
				if err != nil {
					return err
				}
				s := topo.Summarize()
				cells[ci][net] = Table1Cell{AvgDegree: s.AvgDegree, AvgRadius: s.AvgRadius}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Table1Result{Params: p, Columns: cols, Cells: make([]Table1Cell, len(cols))}
	for ci := range cols {
		var degree, radius stats.Sample
		for net := 0; net < p.Networks; net++ {
			degree.Add(cells[ci][net].AvgDegree)
			radius.Add(cells[ci][net].AvgRadius)
		}
		res.Cells[ci] = Table1Cell{
			AvgDegree: degree.Mean(),
			AvgRadius: radius.Mean(),
		}
	}
	return res, nil
}

// Render formats the result as an aligned paper-vs-measured table.
func (t *Table1Result) Render() string {
	tb := stats.NewTable("column", "degree(paper)", "degree(ours)", "radius(paper)", "radius(ours)")
	for i, col := range t.Columns {
		tb.AddRow(col.Name,
			stats.F(col.PaperDegree, 1), stats.F(t.Cells[i].AvgDegree, 1),
			stats.F(col.PaperRadius, 1), stats.F(t.Cells[i].AvgRadius, 1))
	}
	return tb.String()
}

// Panel is one of the eight topology snapshots of the paper's Figure 6.
type Panel struct {
	// Key is the paper's panel letter, "a" through "h".
	Key string
	// Title is the paper's caption for the panel.
	Title string
	// Result holds the topology for the panel.
	Result *Result
}

// Figure6Panels regenerates the paper's Figure 6 with a background
// context; see Figure6PanelsContext.
func Figure6Panels(seed uint64) ([]Panel, error) {
	return Figure6PanelsContext(context.Background(), seed)
}

// Figure6PanelsContext regenerates the paper's Figure 6 on one random
// network drawn with the paper's parameters: the same 100-node placement
// run through (a) no topology control, (b,c) the basic algorithm at 2π/3
// and 5π/6, (d,e) with shrink-back, (f) shrink-back plus asymmetric edge
// removal at 2π/3, and (g,h) all applicable optimizations. The eight
// independent configurations run on the batch worker pool.
func Figure6PanelsContext(ctx context.Context, seed uint64) ([]Panel, error) {
	pos := workload.PaperNetwork(seed)
	at23 := WithAlpha(AlphaAsymmetric)
	at56 := WithAlpha(AlphaConnectivity)
	shrink := WithShrinkBack()
	all := WithAllOptimizations()

	specs := []struct {
		key, title string
		opts       []Option
		maxPower   bool
	}{
		{"a", "no topology control", nil, true},
		{"b", "α=2π/3, basic algorithm", []Option{at23}, false},
		{"c", "α=5π/6, basic algorithm", []Option{at56}, false},
		{"d", "α=2π/3 with shrink-back", []Option{at23, shrink}, false},
		{"e", "α=5π/6 with shrink-back", []Option{at56, shrink}, false},
		{"f", "α=2π/3 with shrink-back and asymmetric edge removal", []Option{at23, shrink, WithAsymmetricRemoval()}, false},
		{"g", "α=5π/6 with all applicable optimizations", []Option{at56, all}, false},
		{"h", "α=2π/3 with all optimizations", []Option{at23, all}, false},
	}
	panels := make([]Panel, len(specs))
	plan := planShards(0, len(specs))
	err := plan.run(ctx, len(specs), func(ctx context.Context, i int) error {
		sp := specs[i]
		// Panel engines run inside the shard pool: give each the plan's
		// inner budget, not a full GOMAXPROCS pool of its own.
		eng, err := New(append([]Option{WithMaxRadius(workload.PaperRadius), WithWorkers(plan.inner)}, sp.opts...)...)
		if err != nil {
			return fmt.Errorf("panel %s: %w", sp.key, err)
		}
		var res *Result
		if sp.maxPower {
			res, err = eng.MaxPower(pos)
		} else {
			res, err = eng.Run(ctx, pos)
		}
		if err != nil {
			return fmt.Errorf("panel %s: %w", sp.key, err)
		}
		panels[i] = Panel{Key: sp.key, Title: sp.title, Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return panels, nil
}

// table1ScheduleFactor is the power-growth factor assumed for the
// paper's protocol when quantizing shrink-back tags in RunTable1,
// calibrated so the op1 column reproduces the published averages.
const table1ScheduleFactor = 1.5
