package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"cbtc"
	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/proto"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
	"cbtc/internal/workload"
)

// paper-table1 sizing: ops per --seconds, warm-up ops, set-up samples
// (each the mean of many builds of the engine set, which alone takes
// only tens of microseconds), and how many traced inputs the allocation
// pass replays.
const (
	paperOpsPerSecond = 32
	paperWarmup       = 20
	paperSetupReps    = 11
	paperSetupBuilds  = 2000 // engine-set builds timed together per set-up sample
	paperRSSWindow    = 32   // ops per peak-resident-set window
	paperAllocOps     = 16
	paperScheduleFac  = 1.5 // RunTable1's WithShrinkBackSchedule factor
	paperSimJitter    = 0.5
	paperColumns      = 8 // Table 1: seven CBTC stacks plus max power
	paperStretchCol   = 5 // "all α=5π/6", the column the query reads
)

// paperColumn is one of Table 1's CBTC columns: its engine, built the
// way RunTable1 builds them, and the stack the traced op decomposes.
type paperColumn struct {
	name  string
	eng   *cbtc.Engine
	alpha float64
	opts  core.Options
}

// paperBench holds the engines of one paper-table1 run.
type paperBench struct {
	cols  []paperColumn
	base  *cbtc.Engine // basic α = 5π/6: the max-power column and Simulate
	prop  radio.Propagation
	sched []float64
}

func newPaperBench() (*paperBench, error) {
	pb := &paperBench{}
	for _, c := range cbtc.Table1Columns() {
		if c.MaxPower {
			continue
		}
		opts := []cbtc.Option{
			cbtc.WithMaxRadius(workload.PaperRadius),
			cbtc.WithAlpha(c.Alpha),
			cbtc.WithShrinkBackSchedule(paperScheduleFac),
		}
		if c.Opts.ShrinkBack {
			opts = append(opts, cbtc.WithShrinkBack())
		}
		if c.Opts.AsymmetricRemoval {
			opts = append(opts, cbtc.WithAsymmetricRemoval())
		}
		if c.Opts.PairwiseRemoval {
			opts = append(opts, cbtc.WithPairwiseRemoval(cbtc.PairwiseLengthFiltered))
		}
		eng, err := cbtc.New(opts...)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", c.Name, err)
		}
		pb.cols = append(pb.cols, paperColumn{name: c.Name, eng: eng, alpha: c.Alpha, opts: c.Opts})
	}
	pb.base = pb.cols[0].eng
	pb.prop = pb.base.Propagation()
	m := pb.base.RadioModel()
	inc, err := radio.Multiplicative(paperScheduleFac)
	if err != nil {
		return nil, err
	}
	if pb.sched, err = radio.Schedule(m.MaxPower()/1024, m.MaxPower(), inc); err != nil {
		return nil, err
	}
	return pb, nil
}

// paperInput is op k's network: 100 uniform nodes in the paper's
// region, and the protocol simulator's seed.
func paperInput(seed uint64, k int) ([]cbtc.Point, uint64) {
	s := workload.Mix(seed, uint64(k))
	return workload.PaperNetwork(s), workload.Mix(s, 1)
}

// paperOut is what the correctness gates read from one op: per column
// (the eight of Table 1, then Simulate) the Table 1 statistics, the edge
// count and whether G preserves G_R's partition, plus the traced op's
// work counts.
type paperOut struct {
	deg, rad  [paperColumns + 1]float64
	edges     [paperColumns + 1]int
	preserved [paperColumns + 1]bool
	runNodes  int
	neighbors int
	sent      int
	delivered int
}

// run is the untraced op: the public API exactly as a user calls it.
func (pb *paperBench) run(ctx context.Context, nodes []cbtc.Point, simSeed uint64) ([]*cbtc.Result, error) {
	out := make([]*cbtc.Result, 0, paperColumns+1)
	for _, c := range pb.cols {
		r, err := c.eng.Run(ctx, nodes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, r)
	}
	mp, err := pb.base.MaxPower(nodes)
	if err != nil {
		return nil, err
	}
	sim, err := pb.base.Simulate(ctx, nodes, cbtc.SimOptions{Seed: simSeed, Jitter: paperSimJitter})
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	return append(out, mp, sim), nil
}

func summarizeResults(rs []*cbtc.Result) paperOut {
	var o paperOut
	for i, r := range rs {
		o.deg[i], o.rad[i] = r.AvgDegree, r.AvgRadius
		o.edges[i] = r.G.EdgeCount()
		o.preserved[i] = r.PreservesConnectivity()
	}
	return o
}

// probe observes the traced op's calls into each layer. enter returns a
// token for the matching exit.
type probe interface {
	enter(name string) int
	exit(tok int)
}

// spanProbe records each call as a span under the op root.
type spanProbe struct {
	rec        *recorder
	op, parent int
}

func (p spanProbe) enter(name string) int { return p.rec.begin(name, p.op, p.parent) }
func (p spanProbe) exit(tok int)          { p.rec.end(tok) }

// nopProbe records nothing.
type nopProbe struct{}

func (nopProbe) enter(string) int { return 0 }
func (nopProbe) exit(int)         {}

// allocProbe sums runtime.MemStats allocation deltas around each call
// into the layer the span name starts with. ReadMemStats stops the
// world, so it runs in its own untimed pass.
type allocProbe struct {
	ms     runtime.MemStats
	open   []allocMark
	allocs map[string]uint64
	bytes  map[string]uint64
}

type allocMark struct {
	layer          string
	mallocs, total uint64
}

func newAllocProbe() *allocProbe {
	return &allocProbe{allocs: map[string]uint64{}, bytes: map[string]uint64{}}
}

func (p *allocProbe) enter(name string) int {
	runtime.ReadMemStats(&p.ms)
	p.open = append(p.open, allocMark{layerOf(name), p.ms.Mallocs, p.ms.TotalAlloc})
	return len(p.open) - 1
}

func (p *allocProbe) exit(tok int) {
	runtime.ReadMemStats(&p.ms)
	m := p.open[tok]
	p.allocs[m.layer] += p.ms.Mallocs - m.mallocs
	p.bytes[m.layer] += p.ms.TotalAlloc - m.total
}

// layerOf is the layer a span name belongs to: its first dotted part.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// traced is the decomposed op: Engine.Run, MaxPower and Simulate
// rebuilt from the internal layers' public functions, in the order the
// engine calls them, with every layer call reported to p. Its Table 1
// statistics must equal the untraced op's bit for bit.
func (pb *paperBench) traced(ctx context.Context, p probe, nodes []cbtc.Point, simSeed uint64) (paperOut, error) {
	var o paperOut
	var gs, grs [paperColumns + 1]*graph.Graph
	for i, c := range pb.cols {
		exec := pb.oracle(p, nodes, c.alpha, &o)
		tok := p.enter("core.quantize_ms")
		exec = core.QuantizeTags(exec, pb.sched)
		p.exit(tok)
		topo := pb.build(p, exec, c.opts)
		grs[i] = pb.groundTruth(p, nodes)
		gs[i] = topo.G
		o.deg[i], o.rad[i] = pb.summarize(p, nodes, topo)
	}

	// The max-power column, as Engine.MaxPower assembles it.
	gr := pb.groundTruth(p, nodes)
	m := pb.base.RadioModel()
	radii := make([]float64, len(nodes))
	powers := make([]float64, len(nodes))
	for u := range nodes {
		radii[u], powers[u] = m.MaxRadius, m.MaxPower()
	}
	gs[paperColumns-1], grs[paperColumns-1] = gr, gr
	o.deg[paperColumns-1], o.rad[paperColumns-1] = graph.AvgDegree(gr), m.MaxRadius

	// Simulate, as Engine.Simulate configures the protocol run.
	simOpts := netsim.Options{Model: pb.prop, Latency: 1, Jitter: paperSimJitter, Seed: simSeed}
	tok := p.enter("proto.simulate_ms")
	exec, rt, err := proto.RunCBTCContext(ctx, nodes, simOpts, proto.Config{Alpha: pb.cols[0].alpha})
	p.exit(tok)
	if err != nil {
		return o, fmt.Errorf("simulate: %w", err)
	}
	st := rt.Sim.Stats()
	o.sent, o.delivered = st.Sent, st.Delivered
	topo := pb.build(p, exec, pb.cols[0].opts)
	grs[paperColumns] = pb.groundTruth(p, nodes)
	gs[paperColumns] = topo.G
	o.deg[paperColumns], o.rad[paperColumns] = pb.summarize(p, nodes, topo)

	for i := range gs {
		o.edges[i] = gs[i].EdgeCount()
		o.preserved[i] = graph.SamePartition(grs[i], gs[i])
	}
	return o, nil
}

// oracle is core.RunParallel's serial path (100 nodes never fan out):
// one grid over the placement, then RunNode for every node.
func (pb *paperBench) oracle(p probe, nodes []cbtc.Point, alpha float64, o *paperOut) *core.Execution {
	tok := p.enter("spatial.grid_ms")
	grid := spatial.New(nodes, pb.prop.MaxLinkRadius())
	p.exit(tok)
	exec := &core.Execution{
		Alpha: alpha,
		Model: pb.prop.Nominal(),
		Pos:   slices.Clone(nodes),
		Nodes: make([]core.NodeResult, len(nodes)),
	}
	var runner core.NodeRunner
	tok = p.enter("core.oracle_ms")
	for u := range nodes {
		exec.Nodes[u] = runner.RunNode(nodes, nil, pb.prop, alpha, u, grid)
	}
	p.exit(tok)
	o.runNodes += len(nodes)
	for _, nr := range exec.Nodes {
		o.neighbors += len(nr.Neighbors)
	}
	return exec
}

// build is core.BuildTopology split at its layer calls.
func (pb *paperBench) build(p probe, exec *core.Execution, opts core.Options) *core.Topology {
	if opts.ShrinkBack {
		tok := p.enter("core.shrink_back_ms")
		exec = core.ShrinkBack(exec)
		p.exit(tok)
	}
	tok := p.enter("graph.symmetrize_ms")
	n := exec.Nalpha()
	var g *graph.Graph
	if opts.AsymmetricRemoval {
		g = n.MutualSubgraph()
	} else {
		g = n.SymmetricClosure()
	}
	p.exit(tok)
	gpre := g
	var removed []graph.Edge
	if opts.PairwiseRemoval {
		policy := opts.PairwisePolicy
		if policy == 0 {
			policy = core.PairwiseLengthFiltered
		}
		tok := p.enter("core.pairwise_ms")
		g, removed = core.PairwiseRemoval(g, exec.Pos, policy)
		p.exit(tok)
	}
	return &core.Topology{Exec: exec, Nalpha: n, G: g, Gpre: gpre, RemovedRedundant: removed, Opts: opts}
}

// groundTruth is the G_R every Result carries, built per column as the
// engine does.
func (pb *paperBench) groundTruth(p probe, nodes []cbtc.Point) *graph.Graph {
	tok := p.enter("spatial.grid_ms")
	grid := spatial.New(nodes, pb.prop.MaxLinkRadius())
	p.exit(tok)
	tok = p.enter("core.max_power_graph_ms")
	gr := core.MaxPowerGraphParallelIndexed(nodes, pb.prop, grid, 0)
	p.exit(tok)
	return gr
}

// summarize is the Result assembly: per-node radii, powers and boundary
// flags, then Topology.Summarize for Table 1's two statistics.
func (pb *paperBench) summarize(p probe, nodes []cbtc.Point, topo *core.Topology) (deg, rad float64) {
	pos := slices.Clone(nodes)
	radii := make([]float64, len(pos))
	powers := make([]float64, len(pos))
	boundary := make([]bool, len(pos))
	for u := range pos {
		radii[u] = topo.Radius(u)
		powers[u] = topo.Exec.Nodes[u].GrowPower
		boundary[u] = topo.Exec.Nodes[u].Boundary
	}
	tok := p.enter("core.summarize_ms")
	s := topo.Summarize()
	p.exit(tok)
	return s.AvgDegree, s.AvgRadius
}

// paperGates checks one op: every CBTC column and Simulate preserve
// G_R's partition (Theorems 2.1, 3.2, 3.6). It reports whether the op
// passed.
func paperGates(g *gates, k int, o paperOut) bool {
	before := g.failed
	for i, ok := range o.preserved {
		if i == paperColumns-1 {
			continue // the max-power column is G_R itself
		}
		g.check(ok, "op %d column %d does not preserve G_R's partition", k, i)
	}
	return g.failed == before
}

// edgeChecksum folds the per-column edge counts of a run's ops, in op
// order, into one number that identical runs reproduce.
func edgeChecksum(outs [][paperColumns + 1]int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, edges := range outs {
		for _, e := range edges[:paperColumns] {
			for b := range buf {
				buf[b] = byte(uint64(e) >> (8 * b))
			}
			_, _ = h.Write(buf[:]) // hash.Hash writes never fail
		}
	}
	return h.Sum64()
}

// batchEdges recomputes every op's per-column edge counts through a
// second path — Engine.RunBatch for the CBTC columns, the serial
// core.MaxPowerGraph for max power — outside any timed window.
func (pb *paperBench) batchEdges(ctx context.Context, seed uint64, ops int) ([][paperColumns + 1]int, error) {
	out := make([][paperColumns + 1]int, ops)
	const chunk = 64
	for lo := 0; lo < ops; lo += chunk {
		hi := min(lo+chunk, ops)
		placements := make([][]cbtc.Point, 0, hi-lo)
		for k := lo; k < hi; k++ {
			nodes, _ := paperInput(seed, k)
			placements = append(placements, nodes)
		}
		for ci, c := range pb.cols {
			rs, err := c.eng.RunBatch(ctx, placements)
			if err != nil {
				return nil, fmt.Errorf("%s batch: %w", c.name, err)
			}
			for j, r := range rs {
				out[lo+j][ci] = r.G.EdgeCount()
			}
		}
		for j, nodes := range placements {
			out[lo+j][paperColumns-1] = core.MaxPowerGraph(nodes, pb.prop).EdgeCount()
		}
	}
	return out, nil
}

// paperSetup takes one set-up sample: the mean time of paperSetupBuilds
// builds of the engine set. It returns the last set built.
func paperSetup() (float64, *paperBench, error) {
	runtime.GC() // each sample starts from a collected heap
	var pb *paperBench
	t := time.Now()
	for range paperSetupBuilds {
		b, err := newPaperBench()
		if err != nil {
			return 0, nil, err
		}
		pb = b
	}
	return time.Since(t).Seconds() / paperSetupBuilds, pb, nil
}

func runPaper(cfg runConfig) (outcome, error) {
	ctx := context.Background()
	var (
		setups []float64
		pb     *paperBench
	)
	for range paperSetupReps {
		s, b, err := paperSetup()
		if err != nil {
			return outcome{}, err
		}
		setups, pb = append(setups, s), b
	}
	if cfg.trace {
		return runPaperTraced(ctx, cfg, pb)
	}

	n := paperOpsPerSecond * cfg.seconds
	total := paperWarmup + n
	var (
		g       gates
		lat     []float64
		queries []float64
		opTime  time.Duration
		cpuTime time.Duration
		edges   = make([][paperColumns + 1]int, total)
		failed  int
		rss     = windowPeaks{size: paperRSSWindow}
	)
	// More set-up samples, one after each peak-RSS window, spread set-up
	// timing over the run, so that a slow spell of the host at start-up
	// moves it no more than it moves the ops.
	moreSetup := func() error {
		s, _, err := paperSetup()
		setups = append(setups, s)
		return err
	}
	for k := 0; k < total; k++ {
		if k == paperWarmup {
			debug.FreeOSMemory() // the first window starts as addSelfRSS starts the others
		}
		nodes, simSeed := paperInput(cfg.seed, k)
		c0, t0 := selfCPU(), time.Now()
		rs, err := pb.run(ctx, nodes, simSeed)
		d, c := time.Since(t0), selfCPU()-c0
		if err != nil {
			return outcome{}, fmt.Errorf("op %d: %w", k, err)
		}
		t1 := time.Now()
		_ = rs[paperStretchCol].HopStretch()
		q := time.Since(t1)

		o := summarizeResults(rs)
		edges[k] = o.edges
		if !paperGates(&g, k, o) {
			failed++
		}
		if k < paperWarmup {
			continue
		}
		if err := addSelfRSS(&rss, moreSetup); err != nil {
			return outcome{}, err
		}
		lat = append(lat, ms(d))
		queries = append(queries, ms(q))
		opTime += d
		cpuTime += c
	}

	// Run-level gate, untimed: the same edge counts through a second path.
	want, err := pb.batchEdges(ctx, cfg.seed, total)
	if err != nil {
		return outcome{}, err
	}
	sum, wantSum := edgeChecksum(edges), edgeChecksum(want)
	g.check(sum == wantSum, "edge-count checksum %016x, batch path gives %016x", sum, wantSum)
	if sum != wantSum {
		failed++
	}

	o := outcome{
		attempted: total,
		failed:    failed,
		metrics: map[string]float64{
			"setup_s":       median(setups),
			"ops_per_s":     float64(n) / opTime.Seconds(),
			"op_p50_ms":     percentile(lat, 50),
			"op_p90_ms":     percentile(lat, 90),
			"cpu_ms_per_op": ms(cpuTime) / float64(n),
			"peak_rss_mb":   rss.median(),
			"query_p50_ms":  percentile(queries, 50),
			"query_p90_ms":  percentile(queries, 90),
		},
	}
	o.notes = append(o.notes,
		fmt.Sprintf("op p99 %.4g ms over %d ops; query (Result.HopStretch) p99 %.4g ms", percentile(lat, 99), len(lat), percentile(queries, 99)),
		fmt.Sprintf("edge-count checksum %016x over %d ops (%d warm-up)", sum, total, paperWarmup),
	)
	o.notes = append(o.notes, g.notes...)
	return o, nil
}

// runPaperTraced times decomposed ops against untraced ops on the same
// inputs (alternating which goes first), checks the two agree bit for
// bit, then replays a few inputs with the allocation probe.
func runPaperTraced(ctx context.Context, cfg runConfig, pb *paperBench) (outcome, error) {
	pairs := paperOpsPerSecond * cfg.seconds / 2
	total := paperWarmup + pairs
	rec := newRecorder()
	var (
		g                   gates
		tracedLat, plainLat []float64
		runNodes, neighbors float64
		sent, delivered     float64
		failed              int
	)
	for k := 0; k < total; k++ {
		nodes, simSeed := paperInput(cfg.seed, k)
		var tOut paperOut
		var plain []*cbtc.Result
		var tDur, pDur time.Duration
		tracedOp := func() error {
			var p probe = nopProbe{} // warm-up ops record no spans
			root := -1
			t0 := time.Now()
			if k >= paperWarmup {
				root = rec.begin("op", k, -1)
				p = spanProbe{rec: rec, op: k, parent: root}
			}
			var err error
			tOut, err = pb.traced(ctx, p, nodes, simSeed)
			if root >= 0 {
				rec.end(root)
			}
			tDur = time.Since(t0)
			return err
		}
		plainOp := func() error {
			t0 := time.Now()
			var err error
			plain, err = pb.run(ctx, nodes, simSeed)
			pDur = time.Since(t0)
			return err
		}
		first, second := tracedOp, plainOp
		if k%2 == 1 {
			first, second = plainOp, tracedOp
		}
		if err := first(); err != nil {
			return outcome{}, fmt.Errorf("op %d: %w", k, err)
		}
		if err := second(); err != nil {
			return outcome{}, fmt.Errorf("op %d: %w", k, err)
		}
		pOut := summarizeResults(plain)
		ok := paperGates(&g, k, tOut)
		for i := range tOut.deg {
			same := math.Float64bits(tOut.deg[i]) == math.Float64bits(pOut.deg[i]) &&
				math.Float64bits(tOut.rad[i]) == math.Float64bits(pOut.rad[i]) &&
				tOut.edges[i] == pOut.edges[i]
			g.check(same, "op %d column %d: decomposed (%v, %v) ≠ Engine (%v, %v)", k, i, tOut.deg[i], tOut.rad[i], pOut.deg[i], pOut.rad[i])
			ok = ok && same
		}
		if !ok {
			failed++
		}
		if k < paperWarmup {
			continue
		}
		tracedLat = append(tracedLat, ms(tDur))
		plainLat = append(plainLat, ms(pDur))
		runNodes += float64(tOut.runNodes)
		neighbors += float64(tOut.neighbors)
		sent += float64(tOut.sent)
		delivered += float64(tOut.delivered)
	}

	ap := newAllocProbe()
	for k := paperWarmup; k < paperWarmup+paperAllocOps; k++ {
		nodes, simSeed := paperInput(cfg.seed, k)
		if _, err := pb.traced(ctx, ap, nodes, simSeed); err != nil {
			return outcome{}, err
		}
	}

	b := layerBreakdown(rec.snapshot())
	m := zeroLayers()
	for name, ns := range b.selfNs {
		m[name] = inUnit(name, ns)
	}
	np := float64(pairs)
	m["core.run_node_calls"] = runNodes / np
	m["core.neighbors"] = neighbors / np
	m["netsim.sent"] = sent / np
	m["netsim.delivered"] = delivered / np
	for _, layer := range []string{"spatial", "core", "graph", "proto"} {
		m[layer+".allocs"] = float64(ap.allocs[layer]) / paperAllocOps
		m[layer+".alloc_kb"] = float64(ap.bytes[layer]) / 1024 / paperAllocOps
	}
	m["remainder_ms"] = b.remainder / 1e6
	m["tracing_overhead_ms"] = percentile(tracedLat, 50) - percentile(plainLat, 50)
	o := outcome{attempted: 2 * total, failed: failed, metrics: m}
	o.notes = append(o.notes, breakdownNotes(b, percentile(tracedLat, 50), percentile(plainLat, 50))...)
	o.notes = append(o.notes, g.notes...)
	return o, nil
}

// zeroLayers is a per-layer metric map with every metric at 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}

// breakdownNotes states the per-layer identity and the overhead.
func breakdownNotes(b breakdown, tracedP50, plainP50 float64) []string {
	var sum float64
	for _, ns := range b.selfNs {
		sum += ns
	}
	return []string{
		fmt.Sprintf("traced op mean %.4f ms over %d ops = layer self times %.4f ms + remainder %.4f ms",
			b.opNs/1e6, b.ops, sum/1e6, b.remainder/1e6),
		fmt.Sprintf("tracing overhead: traced op p50 %.4f ms − untraced op p50 %.4f ms = %.4f ms",
			tracedP50, plainP50, tracedP50-plainP50),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
