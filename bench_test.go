package cbtc

// The benchmark harness maps every table and figure of the paper's
// evaluation (§5) to a regenerable workload:
//
//	BenchmarkTable1/...        — Table 1 columns (degree/radius per stack)
//	BenchmarkRunBatch/...      — serial vs parallel batch execution
//	BenchmarkFigure6           — the eight topology panels
//	BenchmarkExample21         — Figure 2 asymmetry construction
//	BenchmarkFigure5           — Theorem 2.4 disconnection construction
//	BenchmarkOracle/...        — scalability of the minimal-power executor
//	BenchmarkDistributed       — the full Hello/Ack protocol on netsim
//	BenchmarkPairwisePolicy/...— ablation X2: redundant-edge policies
//	BenchmarkPowerStretch      — extension X1: route-quality metric
//
// Absolute throughput is machine-dependent; the benchmarks exist so that
// `go test -bench=.` regenerates every experiment and verifies its
// invariant en passant (failed invariants abort the benchmark).

import (
	"bytes"
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/proto"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// benchNetwork memoizes one paper-sized placement.
var benchNetwork = workload.PaperNetwork(1)

func benchModel() radio.Model { return radio.Default(workload.PaperRadius) }

func BenchmarkTable1(b *testing.B) {
	for _, col := range Table1Columns() {
		col := col
		b.Run(col.Name, func(b *testing.B) {
			m := benchModel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if col.MaxPower {
					gr := core.MaxPowerGraph(benchNetwork, m)
					if graph.AvgDegree(gr) <= 0 {
						b.Fatal("empty baseline")
					}
					continue
				}
				exec, err := core.Run(benchNetwork, m, col.Alpha)
				if err != nil {
					b.Fatal(err)
				}
				topo, err := core.BuildTopology(exec, col.Opts)
				if err != nil {
					b.Fatal(err)
				}
				if s := topo.Summarize(); s.AvgDegree <= 0 {
					b.Fatal("empty topology")
				}
			}
		})
	}
}

// BenchmarkEngineTable1Op is one op of the end-to-end paper-table1
// workload through the public API: Engine.Run on the seven CBTC stacks
// of Table 1 (tags quantized with WithShrinkBackSchedule(1.5), as
// RunTable1 does), MaxPower, and one jittered Simulate, on one of 16
// paper networks in turn. Unlike a decomposition into layer calls it
// includes whatever the engine shares between the layers, such as the
// G_R each Run takes from its own oracle gather.
func BenchmarkEngineTable1Op(b *testing.B) {
	ctx := context.Background()
	var engines []*Engine
	for _, c := range Table1Columns() {
		if c.MaxPower {
			continue
		}
		opts := []Option{WithMaxRadius(workload.PaperRadius), WithAlpha(c.Alpha), WithShrinkBackSchedule(table1ScheduleFactor)}
		if c.Opts.ShrinkBack {
			opts = append(opts, WithShrinkBack())
		}
		if c.Opts.AsymmetricRemoval {
			opts = append(opts, WithAsymmetricRemoval())
		}
		if c.Opts.PairwiseRemoval {
			opts = append(opts, WithPairwiseRemoval(PairwiseLengthFiltered))
		}
		eng, err := New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		engines = append(engines, eng)
	}
	placements := make([][]Point, 16)
	for i := range placements {
		placements[i] = workload.PaperNetwork(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := placements[i%len(placements)]
		for _, eng := range engines {
			if _, err := eng.Run(ctx, nodes); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := engines[0].MaxPower(nodes); err != nil {
			b.Fatal(err)
		}
		if _, err := engines[0].Simulate(ctx, nodes, SimOptions{Seed: uint64(i), Jitter: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBatch measures the tentpole speedup of the Engine API:
// the same 16-network Table 1 workload pushed through Engine.RunBatch
// serially (one worker) and across GOMAXPROCS workers. The parallel/
// serial ratio is the recorded scaling factor; on a single-core machine
// the two converge.
func BenchmarkRunBatch(b *testing.B) {
	placements := make([][]Point, 16)
	for i := range placements {
		placements[i] = workload.Uniform(workload.Rand(uint64(i)), workload.PaperNodes, 1500, 1500)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			eng, err := New(
				WithMaxRadius(workload.PaperRadius),
				WithAllOptimizations(),
				WithWorkers(tc.workers),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := eng.RunBatch(ctx, placements)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(placements) {
					b.Fatal("missing results")
				}
			}
			workers := tc.workers
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

func BenchmarkTable1FullSweep(b *testing.B) {
	// One iteration = the entire Table 1 on a reduced network count;
	// regenerating the paper's full 100-network table is
	// `go run ./cmd/tablegen`.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunTable1(Table1Params{Networks: 3, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != 8 {
			b.Fatal("missing columns")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		panels, err := Figure6Panels(42)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 8 {
			b.Fatal("missing panels")
		}
	}
}

func BenchmarkExample21(b *testing.B) {
	m := benchModel()
	alpha := AlphaAsymmetric + 0.2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos, err := workload.Example21(alpha, m.MaxRadius)
		if err != nil {
			b.Fatal(err)
		}
		exec, err := core.Run(pos, m, alpha)
		if err != nil {
			b.Fatal(err)
		}
		n := exec.Nalpha()
		if !n.HasArc(4, 0) || n.HasArc(0, 4) {
			b.Fatal("asymmetry lost")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	m := benchModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos, err := workload.Figure5(0.1, m.MaxRadius)
		if err != nil {
			b.Fatal(err)
		}
		exec, err := core.Run(pos, m, AlphaConnectivity+0.1)
		if err != nil {
			b.Fatal(err)
		}
		if graph.IsConnected(exec.Nalpha().SymmetricClosure()) {
			b.Fatal("disconnection lost")
		}
	}
}

func BenchmarkOracle(b *testing.B) {
	m := benchModel()
	for _, n := range []int{50, 100, 300, 1000} {
		pos := workload.Uniform(workload.Rand(9), n, 1500, 1500)
		b.Run(benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(pos, m, AlphaConnectivity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDistributed(b *testing.B) {
	m := benchModel()
	pos := workload.Uniform(workload.Rand(10), 50, 1500, 1500)
	cfg := proto.Config{Alpha: AlphaConnectivity}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := netsim.DefaultOptions(m)
		opts.Seed = uint64(i)
		if _, _, err := proto.RunCBTC(pos, opts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation X2: how many edges each pairwise policy removes and at what
// cost. Run with -bench PairwisePolicy -benchtime 1x to see the
// reported removal counts.
func BenchmarkPairwisePolicy(b *testing.B) {
	m := benchModel()
	exec, err := core.Run(benchNetwork, m, AlphaConnectivity)
	if err != nil {
		b.Fatal(err)
	}
	base, err := core.BuildTopology(exec, core.Options{ShrinkBack: true})
	if err != nil {
		b.Fatal(err)
	}
	gr := core.MaxPowerGraph(benchNetwork, m)
	policies := []core.PairwisePolicy{
		core.PairwiseLengthFiltered,
		core.PairwiseRemoveAll,
		core.PairwiseEitherEndpoint,
		core.PairwiseBothEndpoints,
	}
	for _, policy := range policies {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			var removed int
			for i := 0; i < b.N; i++ {
				g, rm := core.PairwiseRemoval(base.G, benchNetwork, policy)
				if !graph.SamePartition(gr, g) {
					b.Fatal("policy broke connectivity")
				}
				removed = len(rm)
			}
			b.ReportMetric(float64(removed), "edges-removed")
		})
	}
}

// Extension X1: empirical stretch factors of the final topology.
func BenchmarkPowerStretch(b *testing.B) {
	res, err := paperEngine(b, WithAllOptimizations()).Run(context.Background(), benchNetwork)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var stretch float64
	for i := 0; i < b.N; i++ {
		stretch = res.PowerStretch()
		if stretch < 1 {
			b.Fatal("stretch below 1")
		}
	}
	b.ReportMetric(stretch, "power-stretch")
}

// Ablation: shrink-back tag granularity (exact oracle tags vs protocol
// power levels), the calibration knob of RunTable1.
func BenchmarkShrinkGranularity(b *testing.B) {
	m := benchModel()
	exec, err := core.Run(benchNetwork, m, AlphaConnectivity)
	if err != nil {
		b.Fatal(err)
	}
	schedule, err := radio.Schedule(m.MaxPower()/1024, m.MaxPower(), radio.Doubling())
	if err != nil {
		b.Fatal(err)
	}
	variants := map[string]*core.Execution{
		"exact-tags":    exec,
		"doubling-tags": core.QuantizeTags(exec.Clone(), schedule),
	}
	for name, e := range variants {
		e := e
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var deg float64
			for i := 0; i < b.N; i++ {
				topo, err := core.BuildTopology(e, core.Options{ShrinkBack: true})
				if err != nil {
					b.Fatal(err)
				}
				deg = topo.Summarize().AvgDegree
			}
			b.ReportMetric(deg, "avg-degree")
		})
	}
}

// Extension X4: the related-work baselines on the paper's workload.
func BenchmarkBaselines(b *testing.B) {
	eng := paperEngine(b)
	for _, kind := range BaselineKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var deg float64
			for i := 0; i < b.N; i++ {
				res, err := eng.Baseline(kind, benchNetwork)
				if err != nil {
					b.Fatal(err)
				}
				if !res.PreservesConnectivity() {
					b.Fatal("baseline broke connectivity")
				}
				deg = res.AvgDegree
			}
			b.ReportMetric(deg, "avg-degree")
		})
	}
}

// Interference reduction (the motivation in §1 for fewer, shorter
// edges).
func BenchmarkInterference(b *testing.B) {
	res, err := paperEngine(b, WithAllOptimizations()).Run(context.Background(), benchNetwork)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = res.AvgInterference()
	}
	b.ReportMetric(avg, "avg-interference")
}

// Extension X5: total transmission energy of the distributed growing
// phase, per cone angle (§5: the wider cone terminates sooner).
func BenchmarkGrowingPhaseEnergy(b *testing.B) {
	m := benchModel()
	pos := workload.Uniform(workload.Rand(5), 40, 1500, 1500)
	for _, tc := range []struct {
		name  string
		alpha float64
	}{
		{"alpha=5pi6", AlphaConnectivity},
		{"alpha=2pi3", AlphaAsymmetric},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var energy float64
			for i := 0; i < b.N; i++ {
				_, rt, err := proto.RunCBTC(pos, netsim.DefaultOptions(m), proto.Config{Alpha: tc.alpha})
				if err != nil {
					b.Fatal(err)
				}
				energy = rt.Sim.TotalEnergy()
			}
			b.ReportMetric(energy, "total-energy")
		})
	}
}

// BenchmarkLargeN is the scaling suite of the spatial-index tentpole:
// the large-n scenario family (uniform + clustered, constant paper
// density) pushed through the oracle, the distributed simulator, and
// Session repair, with naive full-scan variants as the reference. The
// CI bench job asserts the grid keeps its ≥5× lead over the naive oracle
// at n = 5000 (in practice the gap is 1–2 orders of magnitude). Naive
// variants only run at the sizes where a single iteration stays
// interactive; run with -benchtime=1x to regenerate the README table.
func BenchmarkLargeN(b *testing.B) {
	ctx := context.Background()
	for _, sc := range workload.LargeN() {
		sc := sc
		pos := sc.Placement(7)
		m := radio.Default(sc.Radius)

		b.Run(sc.Name+"/oracle/grid", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunContext(ctx, pos, m, AlphaConnectivity); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The PR 3 tentpole: the same oracle fanned across an 8-worker
		// pool. Output is byte-identical to /oracle/grid (asserted by
		// TestRunParallelDeterministic); BENCH_PR3.json gates the
		// parallel-vs-serial ratio at n=10000 on multi-core runners.
		b.Run(sc.Name+"/oracle/par8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunParallel(ctx, pos, m, AlphaConnectivity, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
		if sc.N <= 5000 {
			b.Run(sc.Name+"/oracle/naive", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.RunNaive(ctx, pos, m, AlphaConnectivity); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		if sc.N <= 5000 {
			b.Run(sc.Name+"/sim/grid", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := netsim.DefaultOptions(m)
					opts.Seed = uint64(i)
					if _, _, err := proto.RunCBTC(pos, opts, proto.Config{Alpha: AlphaConnectivity}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if sc.N <= 1000 {
			b.Run(sc.Name+"/sim/naive", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := netsim.DefaultOptions(m)
					opts.Seed = uint64(i)
					opts.NaiveDelivery = true
					if _, _, err := proto.RunCBTC(pos, opts, proto.Config{Alpha: AlphaConnectivity}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		b.Run(sc.Name+"/session-repair", func(b *testing.B) {
			eng, err := New(WithMaxRadius(sc.Radius))
			if err != nil {
				b.Fatal(err)
			}
			sess, err := eng.NewSession(ctx, pos)
			if err != nil {
				b.Fatal(err)
			}
			rng := workload.Rand(99)
			b.ReportAllocs()
			b.ResetTimer()
			var recomputed int
			for i := 0; i < b.N; i++ {
				id := rng.IntN(len(pos))
				if !sess.Alive(id) {
					continue
				}
				to := geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
				rep, err := sess.Move(id, to)
				if err != nil {
					b.Fatal(err)
				}
				recomputed += len(rep.Recomputed)
			}
			b.ReportMetric(float64(recomputed)/float64(b.N), "recomputed/op")
		})

		// Incremental Snapshot: one Move then a fresh snapshot per
		// iteration. Before PR 3 every snapshot rebuilt the full topology
		// and ground-truth G_R; PR 3 cloned the maintained graphs; since
		// PR 4 the clones are copy-on-write — O(n) slice-header copies —
		// so the snapshot cost no longer scales with the edge count.
		b.Run(sc.Name+"/session-snapshot", func(b *testing.B) {
			eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
			if err != nil {
				b.Fatal(err)
			}
			sess, err := eng.NewSession(ctx, pos)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Snapshot(); err != nil {
				b.Fatal(err)
			}
			rng := workload.Rand(101)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := rng.IntN(len(pos))
				if !sess.Alive(id) {
					continue
				}
				to := geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
				if _, err := sess.Move(id, to); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})

		// The from-scratch rebuild as the in-run reference: after each
		// Move on an all-optimizations session, referenceSnapshot rebuilds
		// the whole topology (pairwise removal included) and G_R over the
		// installed rows — the work a snapshot did before sessions
		// maintained their graphs. The committed bench baseline gates the
		// COW snapshot's and the checkpoint's lead over it at n=10000.
		b.Run(sc.Name+"/session-snapshot-full", func(b *testing.B) {
			eng, err := New(WithMaxRadius(sc.Radius), WithAllOptimizations())
			if err != nil {
				b.Fatal(err)
			}
			sess, err := eng.NewSession(ctx, pos)
			if err != nil {
				b.Fatal(err)
			}
			rng := workload.Rand(101)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := rng.IntN(len(pos))
				if !sess.Alive(id) {
					continue
				}
				to := geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
				if _, err := sess.Move(id, to); err != nil {
					b.Fatal(err)
				}
				referenceSnapshot(b, sess)
			}
		})

		// The §4 batch shape: one mobility tick moves a cluster of 32
		// nearby nodes a small step. apply-batch repairs the burst with
		// one region-union recompute; sequential-moves is the same burst
		// through 32 single Move calls. BENCH_PR4.json pins the batch's
		// lead at n=10000.
		b.Run(sc.Name+"/apply-batch32", func(b *testing.B) {
			benchMobilityTick(b, sc, pos, func(sess *Session, events []Event) {
				if _, err := sess.ApplyBatch(events); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run(sc.Name+"/sequential-moves32", func(b *testing.B) {
			benchMobilityTick(b, sc, pos, func(sess *Session, events []Event) {
				for _, ev := range events {
					if _, err := sess.Move(ev.ID, ev.Pos); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchMobilityTick drives one correlated-drift tick per iteration: the
// 32 live nodes nearest a rotating anchor node each jitter by ~R/8,
// applied through fn (batched or sequential). Both variants see
// identical event streams.
func benchMobilityTick(b *testing.B, sc workload.LargeNScenario, pos []Point, fn func(*Session, []Event)) {
	b.Helper()
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		b.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), pos)
	if err != nil {
		b.Fatal(err)
	}
	rng := workload.Rand(103)
	const tickSize = 32
	type cand struct {
		id int
		d2 float64
	}
	cands := make([]cand, 0, len(pos))
	events := make([]Event, 0, tickSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Assemble the tick outside the timer: the cluster around a
		// random live anchor, each member jittered.
		var center Point
		for {
			id := rng.IntN(sess.Len())
			if sess.Alive(id) {
				center = sess.Position(id)
				break
			}
		}
		cands = cands[:0]
		for id := 0; id < sess.Len(); id++ {
			if sess.Alive(id) {
				cands = append(cands, cand{id, sess.Position(id).Dist2(center)})
			}
		}
		slices.SortFunc(cands, func(a, c cand) int {
			if a.d2 != c.d2 {
				if a.d2 < c.d2 {
					return -1
				}
				return 1
			}
			return a.id - c.id
		})
		n := tickSize
		if n > len(cands) {
			n = len(cands)
		}
		events = events[:0]
		jitter := sc.Radius / 8
		for _, c := range cands[:n] {
			p := sess.Position(c.id)
			events = append(events, MoveEvent(c.id, geom.Pt(
				p.X+rng.Float64()*2*jitter-jitter,
				p.Y+rng.Float64()*2*jitter-jitter,
			)))
		}
		b.StartTimer()
		fn(sess, events)
	}
	b.ReportMetric(float64(tickSize), "moves/tick")
}

// BenchmarkFleet measures the PR 5 tentpole: the same 16-network fleet
// (250 nodes each, constant paper density, standard drift/churn ticks)
// advanced one synchronized tick per iteration — tick generation,
// batched repair, per-tick observation and the aggregated FleetReport —
// serially and across the shard pool. The networks are independent, so
// the sharded fleet's per-network results are byte-identical to the
// serial ones (TestFleetWorkerCountInvariance); BENCH_PR5.json gates
// the serial/sharded ratio on multi-core runners.
func BenchmarkFleet(b *testing.B) {
	sc := workload.Fleet(16, 250, "uniform")
	placements := sc.Placements(7)
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"sharded", 0},
	} {
		tc := tc
		b.Run(sc.Name+"/"+tc.name, func(b *testing.B) {
			eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
			if err != nil {
				b.Fatal(err)
			}
			fleet, err := eng.NewFleet(ctx, FleetConfig{Members: oracleMembers(placements), Seed: 11, Workers: tc.workers})
			if err != nil {
				b.Fatal(err)
			}
			tick := DriftTick(TickProfile{
				Moves:     sc.Moves,
				Jitter:    sc.Jitter,
				JoinProb:  sc.JoinProb,
				LeaveProb: sc.LeaveProb,
				Width:     sc.Side,
				Height:    sc.Side,
			})
			b.ReportAllocs()
			b.ResetTimer()
			var events int
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(ctx, 1, tick)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Preserved != rep.Networks {
					b.Fatalf("tick %d: only %d/%d networks preserve connectivity", i, rep.Preserved, rep.Networks)
				}
				events = rep.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			workers := tc.workers
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// mobilityFleet returns fleet-mobility's scenario, engine and fleet
// configuration at seed: eight 1000-node members at paper density on 2
// workers — five shrink-back oracle members, one all-optimizations
// member, one shadowed member (σ = 4 dB) and one protocol-built member.
func mobilityFleet(tb testing.TB, seed uint64) (workload.FleetScenario, *Engine, FleetConfig) {
	tb.Helper()
	sc := workload.Fleet(8, 1000, "uniform")
	placements := sc.Placements(seed)
	members := make([]MemberSpec, len(placements))
	for i := range members {
		members[i].Placement = placements[i]
	}
	members[5].Options = []Option{WithAllOptimizations()}
	members[6].Options = []Option{WithShadowing(4, seed)}
	members[7].Kind = MemberProtocol
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		tb.Fatal(err)
	}
	return sc, eng, FleetConfig{Members: members, Seed: seed, Workers: 2}
}

// BenchmarkNewFleet measures fleet construction on fleet-mobility's
// member mix (mobilityFleet), whose protocol-built member's Figure 1
// simulation is the longest single build.
func BenchmarkNewFleet(b *testing.B) {
	_, eng, cfg := mobilityFleet(b, 7)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.NewFleet(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetNetworkReport times fleet-mobility's query: the first
// report of one member after a fleet round of drift ticks on its member
// mix (mobilityFleet), members taken in turn. /maintained is
// Fleet.NetworkReport, read from the state each session maintains;
// /reference is the snapshot-based read it replaced
// (referenceMemberReport), which labels G and G_R from scratch.
func BenchmarkFleetNetworkReport(b *testing.B) {
	sc, eng, cfg := mobilityFleet(b, 7)
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		report func(f *Fleet, i int) bool
	}{
		{"maintained", func(f *Fleet, i int) bool {
			nr, err := f.NetworkReport(i)
			if err != nil {
				b.Fatal(err)
			}
			return nr.Preserved
		}},
		{"reference", func(f *Fleet, i int) bool {
			return referenceMemberReport(b, f.Session(i)).Preserved
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f, err := eng.NewFleet(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			tick := fleetTick(sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := f.Advance(ctx, 1, tick); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if !tc.report(f, i%f.Size()) {
					b.Fatalf("round %d: member %d lost G_R's partition", i, i%f.Size())
				}
			}
		})
	}
}

// TestNetworkReportAllocations bounds the allocations of one
// Fleet.NetworkReport of a 1000-node shrink-back member right after a
// drift tick, averaged over 16 ticks. It makes two: the report itself
// and the degree histogram's bins. The snapshot-based report it
// replaced made 49.6 under the same measure.
func TestNetworkReportAllocations(t *testing.T) {
	sc := workload.Fleet(1, 1000, "uniform")
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := eng.NewFleet(ctx, FleetConfig{Members: oracleMembers(sc.Placements(3)), Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tick := fleetTick(sc)
	const ticks, ceiling = 16, 4
	var before, after runtime.MemStats
	var mallocs uint64
	for range ticks {
		if err := f.Advance(ctx, 1, tick); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		nr, err := f.NetworkReport(0)
		runtime.ReadMemStats(&after)
		if err != nil || !nr.Preserved {
			t.Fatalf("report %+v, error %v", nr, err)
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	allocs := float64(mallocs) / ticks
	t.Logf("%.1f allocations per report after a tick (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("a NetworkReport after a tick allocates %.1f objects, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkTickEvents measures fleetd-ingest's tick without HTTP or the
// write-ahead log: one Fleet.TickEvents per iteration over eight
// 1000-node shrink-back members on 2 workers, 16 events per tick drawn
// in advance by drawIngestTicks.
func BenchmarkTickEvents(b *testing.B) {
	const seed = 21
	sc := workload.Fleet(8, 1000, "uniform")
	placements := sc.Placements(seed)
	members := make([]MemberSpec, len(placements))
	for i := range members {
		members[i].Placement = placements[i]
	}
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	f, err := eng.NewFleet(ctx, FleetConfig{Members: members, Seed: seed, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ticks := drawIngestTicks(sc, placements, seed, b.N, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range ticks {
		if err := f.TickEvents(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// drawIngestTicks draws ticks batches of perTick events over the fleet
// built from placements, the way fleetd-ingest's generator draws its
// posts: each event picks a member, then is a join anywhere in the
// region (1 in perTick), a leave of a live node (1 in perTick, while the
// member keeps two) or a drift move of a live node by up to ±Jitter per
// coordinate, clamped to the region. Each batch holds one slot per
// member, nil where the tick drew no event for it.
func drawIngestTicks(sc workload.FleetScenario, placements [][]Point, seed uint64, ticks, perTick int) [][][]Event {
	rng := rand.New(rand.NewPCG(seed, workload.Mix(seed, 0x6c6f6164)))
	type member struct {
		pos  []Point
		live []int
	}
	members := make([]member, len(placements))
	for i, p := range placements {
		members[i].pos = slices.Clone(p)
		for id := range p {
			members[i].live = append(members[i].live, id)
		}
	}
	clamp := func(v float64) float64 { return max(0, min(v, sc.Side)) }
	out := make([][][]Event, ticks)
	for t := range out {
		batch := make([][]Event, len(members))
		for range perTick {
			net := rng.IntN(len(members))
			m := &members[net]
			var ev Event
			switch r := rng.IntN(perTick); {
			case r == 0:
				p := Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
				ev = JoinEvent(p)
				m.live = append(m.live, len(m.pos))
				m.pos = append(m.pos, p)
			case r == 1 && len(m.live) > 1:
				i := rng.IntN(len(m.live))
				ev = LeaveEvent(m.live[i])
				m.live[i] = m.live[len(m.live)-1]
				m.live = m.live[:len(m.live)-1]
			default:
				id := m.live[rng.IntN(len(m.live))]
				p := m.pos[id]
				p.X = clamp(p.X + (rng.Float64()*2-1)*sc.Jitter)
				p.Y = clamp(p.Y + (rng.Float64()*2-1)*sc.Jitter)
				m.pos[id] = p
				ev = MoveEvent(id, p)
			}
			batch[net] = append(batch[net], ev)
		}
		out[t] = batch
	}
	return out
}

// TestApplyBatchAllocations bounds one 16-move ApplyBatch on a warmed
// 1000-node shrink-back session at paper density: drift moves of up to
// R/8 per coordinate, 32 measured batches after 8 warm-up ones. The
// ceiling is 1.5× the 548 allocations a batch made when it was set.
// Then each recomputed node allocated its new row, the component
// structure its split searches, and graph rows that outgrew their room
// a copy; nothing was allocated per candidate. Before the repair read
// its candidates from G_R and its §4 machines from a per-batch pool, a
// batch made 2 600; since the split searches run on the component
// structure's reused scratch, about 190.
func TestApplyBatchAllocations(t *testing.T) {
	const seed, moves = 3, 16
	sc := workload.Fleet(1, 1000, "uniform")
	pos := slices.Clone(sc.Placements(seed)[0])
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), pos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	batches := make([][]Event, 8+33) // warm-up, then AllocsPerRun's 1 + 32 calls
	for i := range batches {
		for range moves {
			id := rng.IntN(len(pos))
			p := pos[id]
			p.X = max(0, min(p.X+(rng.Float64()*2-1)*sc.Jitter, sc.Side))
			p.Y = max(0, min(p.Y+(rng.Float64()*2-1)*sc.Jitter, sc.Side))
			pos[id] = p
			batches[i] = append(batches[i], MoveEvent(id, p))
		}
	}
	apply := func(events []Event) {
		if _, err := sess.ApplyBatch(events); err != nil {
			t.Fatal(err)
		}
	}
	for _, events := range batches[:8] {
		apply(events)
	}
	next := 8
	allocs := testing.AllocsPerRun(32, func() {
		apply(batches[next])
		next++
	})
	const ceiling = 1.5 * 548
	t.Logf("%.0f allocations per %d-move batch (ceiling %.0f)", allocs, moves, float64(ceiling))
	if allocs > ceiling {
		t.Fatalf("a %d-move ApplyBatch allocates %.0f objects, ceiling %.0f", moves, allocs, float64(ceiling))
	}
}

// BenchmarkFleetAsync measures the PR 7 tentpole on a straggler-skewed
// heterogeneous mix: 8 light networks (80 nodes, tick weight 4) plus
// one heavyweight straggler (2000 nodes, weight 1), all at paper density.
// Both arms apply the same per-member tick sequences; they differ only
// in scheduling:
//
//   - async: one fleet round per iteration on the work-stealing
//     scheduler — each fast member ticks 4×, the straggler once, and
//     nobody waits at a barrier.
//   - lockstep: weights flattened to 1 and four rounds driven with a
//     full drain between them — the retired PR 5 semantics, where every
//     round's fast ticks wait for a straggler tick.
//
// Per iteration the fast-member work is identical (32 ticks); the async
// arm pays the straggler once instead of four times. BENCH_PR7.json
// gates the lockstep/async ratio on ≥4-core runners.
func BenchmarkFleetAsync(b *testing.B) {
	mix := workload.StragglerMix(8, 80, 4, 2000)
	ctx := context.Background()
	ticks := make([]TickFunc, len(mix))
	for i, sz := range mix {
		moves := sz.N / 16
		ticks[i] = DriftTick(TickProfile{
			Moves:     moves,
			Jitter:    workload.PaperRadius / 8,
			JoinProb:  0.25,
			LeaveProb: 0.25,
			Width:     sz.Side,
			Height:    sz.Side,
		})
	}
	tick := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		return ticks[net](net, tk, rng, s)
	}
	for _, tc := range []struct {
		name   string
		rounds int // rounds per iteration; 1 round of weight w ≡ w flattened rounds
		async  bool
	}{
		{"async", 1, true},
		{"lockstep", 4, false},
	} {
		tc := tc
		b.Run("straggler-m9/"+tc.name, func(b *testing.B) {
			eng, err := New(WithMaxRadius(workload.PaperRadius), WithShrinkBack())
			if err != nil {
				b.Fatal(err)
			}
			members := make([]MemberSpec, len(mix))
			for i, sz := range mix {
				members[i] = MemberSpec{Placement: workload.MemberPlacement(11, i, sz)}
				if tc.async {
					members[i].Ticks = sz.Ticks
				}
			}
			fleet, err := eng.NewFleet(ctx, FleetConfig{Members: members, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < tc.rounds; r++ {
					if err := fleet.Advance(ctx, 1, tick); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			rep, err := fleet.Report()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Preserved != rep.Networks {
				b.Fatalf("only %d/%d networks preserve connectivity", rep.Preserved, rep.Networks)
			}
			b.ReportMetric(float64(rep.Events)/float64(b.N), "events/op")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
		})
	}
}

// BenchmarkGraphClone isolates the substrate win: a copy-on-write clone
// of the n=10k maximum-power graph (O(n) slice-header copies) against a
// fully materialized deep copy (O(E) arena copy) — the cheapest possible
// version of what the map-based representation paid on every snapshot.
// BENCH_PR4.json pins the COW/deep ratio.
func BenchmarkGraphClone(b *testing.B) {
	var sc workload.LargeNScenario
	for _, s := range workload.LargeN() {
		if s.N == 10000 && s.Kind == "uniform" {
			sc = s
		}
	}
	if sc.N == 0 {
		b.Fatal("missing uniform n=10000 scenario")
	}
	pos := sc.Placement(7)
	gr := core.MaxPowerGraph(pos, radio.Default(sc.Radius))
	b.Run("cow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if gr.Clone().Len() != sc.N {
				b.Fatal("bad clone")
			}
		}
	})
	b.Run("deep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if gr.CloneDeep().Len() != sc.N {
				b.Fatal("bad clone")
			}
		}
	})
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkCheckpoint measures the durability layer at n=10000 uniform:
// /checkpoint serializes a live session (lock-light COW export plus the
// bulk arena encode) into a reusable buffer, /restore decodes and
// revalidates it back into a live session (including the spatial-index
// and reconfigurator rebuild). Fleet checkpoints are m independent
// session bodies behind one header, so the session-level numbers are
// the per-network cost. BENCH_PR6.json gates both absolutes and their
// allocation ceilings.
func BenchmarkCheckpoint(b *testing.B) {
	var sc workload.LargeNScenario
	for _, s := range workload.LargeN() {
		if s.N == 10000 && s.Kind == "uniform" {
			sc = s
		}
	}
	ctx := context.Background()
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		b.Fatal(err)
	}
	sess, err := eng.NewSession(ctx, sc.Placement(7))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	raw := bytes.Clone(buf.Bytes())

	b.Run(sc.Name+"/checkpoint", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sess.Checkpoint(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "checkpoint-bytes")
	})
	b.Run(sc.Name+"/restore", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restored, err := eng.RestoreSession(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if restored.Len() != sess.Len() {
				b.Fatal("restored session truncated")
			}
		}
	})
}

// BenchmarkFleetCheckpoint measures fleetd's checkpoint path on
// fleetd-ingest's fleet: eight 1000-node shrink-back members. /encode
// writes the fleet checkpoint into a buffer grown to the previous
// checkpoint's size, as fleetd's store does; /verify runs every restore
// check on those bytes without building a member
// (VerifyFleetCheckpoint: fleetd's verify-on-write and its read of the
// oldest generation's clocks); /restore rebuilds the whole fleet
// (RestoreFleet: fleetd's boot from an existing checkpoint).
func BenchmarkFleetCheckpoint(b *testing.B) {
	const seed = 13
	sc := workload.Fleet(8, 1000, "uniform")
	placements := sc.Placements(seed)
	members := make([]MemberSpec, len(placements))
	for i := range members {
		members[i].Placement = placements[i]
	}
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		b.Fatal(err)
	}
	f, err := eng.NewFleet(context.Background(), FleetConfig{Members: members, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	var raw bytes.Buffer
	if err := f.Checkpoint(&raw); err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(raw.Len())
			if err := f.Checkpoint(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(raw.Len()), "checkpoint-bytes")
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wm, err := eng.VerifyFleetCheckpoint(bytes.NewReader(raw.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if len(wm.Members) != len(members) {
				b.Fatal("verified checkpoint lost members")
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restored, err := eng.RestoreFleet(bytes.NewReader(raw.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if restored.Size() != len(members) {
				b.Fatal("restored fleet lost members")
			}
		}
	})
}

// BenchmarkObserve is the PR 9 tentpole gate: per-tick metric reads off
// the session's maintained aggregates (live count, edge count, dynamic
// connectivity, cached radii) against the reference full scan — a
// component BFS plus a fresh per-node radius fold. Both run on the same
// dirtied incremental session, and TestSessionObserveLockstep proves
// they return bitwise-identical TickStats; BENCH_PR9.json pins the
// maintained path's ≥5× lead at n = 10000.
func BenchmarkObserve(b *testing.B) {
	ctx := context.Background()
	for _, sc := range workload.LargeN() {
		if sc.Kind != "uniform" {
			continue
		}
		sc := sc
		pos := sc.Placement(7)
		eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
		if err != nil {
			b.Fatal(err)
		}
		sess, err := eng.NewSession(ctx, pos)
		if err != nil {
			b.Fatal(err)
		}
		// Dirty the session so the maintained state is mid-run, not
		// construction-fresh.
		rng := workload.Rand(3)
		for k := 0; k < 32; k++ {
			id := rng.IntN(len(pos))
			if !sess.Alive(id) {
				continue
			}
			to := geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
			if _, err := sess.Move(id, to); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(sc.Name+"/incremental", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Observe(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sc.Name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess.mu.Lock()
				ts := observeGraph(sess.g, sess.alive, sess.pos, sess.nodes)
				sess.mu.Unlock()
				if ts.Live == 0 {
					b.Fatal("empty observe")
				}
			}
		})
	}
}

// BenchmarkLifetime is the PR 10 energy-workload suite on a
// paper-density 1000-node session. /drain-observe is the raw per-tick
// battery cost: one event-free Tick paying the Θ(live) drain pass plus
// the maintained O(changed) observation. /lifetime-tick is the full
// LifetimeTick driver a fleet runs — drift events, repair, drain,
// depletion scan — per tick. Capacities are sized so no node dies
// during timing: the live set stays constant and per-op figures are
// comparable across b.N.
func BenchmarkLifetime(b *testing.B) {
	ctx := context.Background()
	const n = 1000
	side := workload.LargeNSide(n)
	pos := workload.Uniform(workload.Rand(7), n, side, side)
	newBatterySession := func(b *testing.B) *Session {
		b.Helper()
		eng, err := New(WithMaxRadius(workload.PaperRadius), WithShrinkBack(), WithBattery(1e18, 1))
		if err != nil {
			b.Fatal(err)
		}
		sess, err := eng.NewSession(ctx, pos)
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}

	b.Run("uniform-1000/drain-observe", func(b *testing.B) {
		sess := newBatterySession(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, ts, err := sess.Tick(nil)
			if err != nil {
				b.Fatal(err)
			}
			if ts.Residual <= 0 || ts.Live != n {
				b.Fatalf("tick %d: live=%d residual=%v; capacity too small for the run", i, ts.Live, ts.Residual)
			}
		}
	})

	b.Run("uniform-1000/lifetime-tick", func(b *testing.B) {
		sess := newBatterySession(b)
		tick := LifetimeTick(TickProfile{
			Moves: 8, Jitter: workload.PaperRadius / 8,
			Width: side, Height: side,
		})
		rng := workload.Rand(19)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			events := tick(0, i, rng, sess)
			if _, _, err := sess.Tick(events); err != nil {
				b.Fatal(err)
			}
		}
	})
}
