package core

import (
	"errors"
	"math"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/workload"
)

// --- Theorem 3.1: shrink-back preserves connectivity. ---

func TestShrinkBackPreservesConnectivity(t *testing.T) {
	m := defaultModel()
	for _, alpha := range []float64{AlphaAsymmetric, AlphaConnectivity} {
		for seed := uint64(0); seed < 15; seed++ {
			pos := workload.Uniform(workload.Rand(seed), 70, 1500, 1500)
			gr := MaxPowerGraph(pos, m)
			e := mustRun(t, pos, m, alpha)
			shrunk := ShrinkBack(e)
			gs := shrunk.Nalpha().SymmetricClosure()
			if !graph.SamePartition(gr, gs) {
				t.Errorf("alpha=%.3f seed=%d: G^s_α changed the partition", alpha, seed)
			}
		}
	}
}

func TestShrinkBackNeverGrows(t *testing.T) {
	m := defaultModel()
	for seed := uint64(0); seed < 10; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 70, 1500, 1500)
		e := mustRun(t, pos, m, AlphaConnectivity)
		shrunk := ShrinkBack(e)
		for u := range pos {
			if len(shrunk.Nodes[u].Neighbors) > len(e.Nodes[u].Neighbors) {
				t.Fatalf("seed=%d node=%d: shrink-back added neighbors", seed, u)
			}
			// Kept neighbors are a subset of the discovered ones.
			discovered := make(map[int]bool, len(e.Nodes[u].Neighbors))
			for _, nb := range e.Nodes[u].Neighbors {
				discovered[nb.ID] = true
			}
			for _, nb := range shrunk.Nodes[u].Neighbors {
				if !discovered[nb.ID] {
					t.Fatalf("seed=%d node=%d: shrink-back invented neighbor %d", seed, u, nb.ID)
				}
			}
			// GrowPower is preserved for the §4 beacon rule.
			if shrunk.Nodes[u].GrowPower != e.Nodes[u].GrowPower {
				t.Fatalf("seed=%d node=%d: GrowPower changed", seed, u)
			}
		}
	}
}

func TestShrinkBackPreservesCoverage(t *testing.T) {
	m := defaultModel()
	for seed := uint64(0); seed < 10; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 70, 1500, 1500)
		e := mustRun(t, pos, m, AlphaConnectivity)
		shrunk := ShrinkBack(e)
		var c geom.Cover
		for u := range pos {
			c.Reset(e.Nodes[u].Directions(), e.Alpha)
			c.Clear()
			for _, d := range shrunk.Nodes[u].Directions() {
				c.Add(d)
			}
			if !c.Same() {
				t.Errorf("seed=%d node=%d: coverage changed: %v -> %v", seed, u,
					e.Nodes[u].Directions(), shrunk.Nodes[u].Directions())
			}
		}
	}
}

// Interior (non-boundary) nodes cannot shrink: the growing phase stopped
// at the first power level that closed the gap.
func TestShrinkBackOnlyAffectsBoundaryNodes(t *testing.T) {
	m := defaultModel()
	pos := workload.Uniform(workload.Rand(4), 80, 1500, 1500)
	e := mustRun(t, pos, m, AlphaConnectivity)
	shrunk := ShrinkBack(e)
	for u := range pos {
		if !e.Nodes[u].Boundary && len(shrunk.Nodes[u].Neighbors) != len(e.Nodes[u].Neighbors) {
			t.Errorf("interior node %d shrank from %d to %d neighbors",
				u, len(e.Nodes[u].Neighbors), len(shrunk.Nodes[u].Neighbors))
		}
	}
}

// A hand-built boundary node does shrink: neighbors beyond the coverage-
// preserving level are dropped.
func TestShrinkBackDropsUselessFarNeighbor(t *testing.T) {
	m := defaultModel()
	center := geom.Pt(0, 0)
	// Three neighbors clustered in a quarter-plane close by, plus one far
	// node in the same sector: the far node adds no coverage.
	pos := []geom.Point{
		center,
		center.Polar(100, 0),
		center.Polar(110, 0.3),
		center.Polar(120, 0.6),
		center.Polar(450, 0.3), // covered direction, far away
	}
	e := mustRun(t, pos, m, AlphaConnectivity)
	if !e.Nodes[0].Boundary {
		t.Fatalf("node 0 must be a boundary node (three quarters of the plane empty)")
	}
	if len(e.Nodes[0].Neighbors) != 4 {
		t.Fatalf("node 0 must discover all 4 nodes, got %d", len(e.Nodes[0].Neighbors))
	}
	shrunk := ShrinkBack(e)
	for _, nb := range shrunk.Nodes[0].Neighbors {
		if nb.ID == 4 {
			t.Errorf("far neighbor with redundant direction must be shrunk away")
		}
	}
}

// --- Theorem 3.2: asymmetric edge removal preserves connectivity for ---
// --- α ≤ 2π/3 (and is rejected above).                               ---

func TestAsymmetricRemovalPreservesConnectivity(t *testing.T) {
	m := defaultModel()
	for _, alpha := range []float64{math.Pi / 2, AlphaAsymmetric} {
		for seed := uint64(0); seed < 15; seed++ {
			pos := workload.Uniform(workload.Rand(seed), 70, 1500, 1500)
			gr := MaxPowerGraph(pos, m)
			e := mustRun(t, pos, m, alpha)
			topo, err := BuildTopology(e, Options{ShrinkBack: true, AsymmetricRemoval: true})
			if err != nil {
				t.Fatalf("alpha=%.3f seed=%d: %v", alpha, seed, err)
			}
			if !graph.SamePartition(gr, topo.G) {
				t.Errorf("alpha=%.3f seed=%d: E⁻_α changed the partition", alpha, seed)
			}
		}
	}
}

func TestAsymmetricRemovalRejectedAboveTwoThirds(t *testing.T) {
	m := defaultModel()
	pos := workload.Uniform(workload.Rand(1), 20, 1500, 1500)
	e := mustRun(t, pos, m, AlphaConnectivity)
	_, err := BuildTopology(e, Options{AsymmetricRemoval: true})
	if !errors.Is(err, ErrAlphaTooLargeForAsym) {
		t.Errorf("BuildTopology error = %v, want ErrAlphaTooLargeForAsym", err)
	}
}

// On Example 2.1 with α > 2π/3, dropping asymmetric edges would
// disconnect the network — the reason Theorem 3.2 stops at 2π/3.
func TestAsymmetricRemovalWouldBreakExample21(t *testing.T) {
	m := defaultModel()
	alpha := 2*math.Pi/3 + 0.2
	pos, err := workload.Example21(alpha, m.MaxRadius)
	if err != nil {
		t.Fatal(err)
	}
	e := mustRun(t, pos, m, alpha)
	gr := MaxPowerGraph(pos, m)
	mutual := e.Nalpha().MutualSubgraph()
	if graph.SamePartition(gr, mutual) {
		t.Errorf("mutual subgraph must disconnect v on Example 2.1 (this is the counterexample)")
	}
}

// --- Theorem 3.6: pairwise edge removal preserves connectivity. ---

func TestPairwiseRemovalPreservesConnectivity(t *testing.T) {
	m := defaultModel()
	for _, policy := range []PairwisePolicy{PairwiseLengthFiltered, PairwiseRemoveAll} {
		for _, alpha := range []float64{AlphaAsymmetric, AlphaConnectivity} {
			for seed := uint64(0); seed < 15; seed++ {
				pos := workload.Uniform(workload.Rand(seed), 70, 1500, 1500)
				gr := MaxPowerGraph(pos, m)
				e := mustRun(t, pos, m, alpha)
				topo, err := BuildTopology(e, Options{
					ShrinkBack:      true,
					PairwiseRemoval: true,
					PairwisePolicy:  policy,
				})
				if err != nil {
					t.Fatalf("%v alpha=%.3f seed=%d: %v", policy, alpha, seed, err)
				}
				if !graph.SamePartition(gr, topo.G) {
					t.Errorf("%v alpha=%.3f seed=%d: pairwise removal broke connectivity",
						policy, alpha, seed)
				}
			}
		}
	}
}

func TestRedundantEdgesDefinition(t *testing.T) {
	// Triangle with a tight angle at node 0: neighbors 1 and 2 with
	// ∠1,0,2 = π/6 < π/3. The longer edge (0,2) is redundant.
	pos := []geom.Point{
		geom.Pt(0, 0),
		geom.Pt(100, 0).RotateAround(geom.Pt(0, 0), 0),
		geom.Pt(200, 0).RotateAround(geom.Pt(0, 0), math.Pi/6),
	}
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	red := redundantEdges(g, pos, true).edges
	if !red[graph.NewEdge(0, 2)] {
		t.Errorf("(0,2) must be redundant")
	}
	if red[graph.NewEdge(0, 1)] {
		t.Errorf("(0,1) is the shorter edge; must not be redundant")
	}
}

func TestRedundantEdgesWideAngle(t *testing.T) {
	// ∠1,0,2 = π/2 > π/3: nothing is redundant.
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(0, 200)}
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	if red := redundantEdges(g, pos, true).edges; len(red) != 0 {
		t.Errorf("no redundancy expected at wide angles, got %v", red)
	}
}

// Equal-length edges: the ID tiebreak makes exactly one of them
// redundant, never both.
func TestRedundantEdgesTiebreak(t *testing.T) {
	pos := []geom.Point{
		geom.Pt(0, 0),
		geom.Pt(100, 0),
		geom.Pt(60, 80), // exactly length 100 (3-4-5), ∠ = acos(0.6) < π/3
	}
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	red := redundantEdges(g, pos, true).edges
	if len(red) != 1 {
		t.Fatalf("exactly one of the equal edges must be redundant, got %v", red)
	}
	// eid tiebreak: (0,2) has maxID 2 > maxID 1 of (0,1), so (0,2) loses.
	if !red[graph.NewEdge(0, 2)] {
		t.Errorf("(0,2) must lose the ID tiebreak, got %v", red)
	}
}

func TestPairwisePolicies(t *testing.T) {
	m := defaultModel()
	pos := workload.Uniform(workload.Rand(9), 100, 1500, 1500)
	e := mustRun(t, pos, m, AlphaConnectivity)
	base, err := BuildTopology(e, Options{ShrinkBack: true})
	if err != nil {
		t.Fatal(err)
	}
	filtered, removedF := PairwiseRemoval(base.G, pos, PairwiseLengthFiltered)
	all, removedA := PairwiseRemoval(base.G, pos, PairwiseRemoveAll)

	if len(removedA) < len(removedF) {
		t.Errorf("remove-all must remove at least as many edges: %d vs %d",
			len(removedA), len(removedF))
	}
	if !all.IsSubgraphOf(filtered) {
		t.Errorf("remove-all result must be a subgraph of the filtered result")
	}
	if !filtered.IsSubgraphOf(base.G) {
		t.Errorf("pairwise removal must only remove edges")
	}
	// Both policies preserve connectivity.
	gr := MaxPowerGraph(pos, m)
	for name, g := range map[string]*graph.Graph{"filtered": filtered, "all": all} {
		if !graph.SamePartition(gr, g) {
			t.Errorf("policy %s broke connectivity", name)
		}
	}
}

// The removal never isolates a node that had neighbors.
func TestPairwiseRemovalNeverIsolates(t *testing.T) {
	m := defaultModel()
	for seed := uint64(0); seed < 10; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 90, 1500, 1500)
		e := mustRun(t, pos, m, AlphaConnectivity)
		topo, err := BuildTopology(e, Options{ShrinkBack: true, PairwiseRemoval: true, PairwisePolicy: PairwiseRemoveAll})
		if err != nil {
			t.Fatal(err)
		}
		before := e.Nalpha().SymmetricClosure()
		for u := 0; u < len(pos); u++ {
			if before.Degree(u) > 0 && topo.G.Degree(u) == 0 {
				t.Errorf("seed=%d: node %d was isolated by pairwise removal", seed, u)
			}
		}
	}
}

func TestPairwisePolicyString(t *testing.T) {
	if PairwiseLengthFiltered.String() != "length-filtered" {
		t.Errorf("unexpected: %v", PairwiseLengthFiltered)
	}
	if PairwiseRemoveAll.String() != "remove-all" {
		t.Errorf("unexpected: %v", PairwiseRemoveAll)
	}
	if got := PairwisePolicy(99).String(); got != "PairwisePolicy(99)" {
		t.Errorf("unexpected: %v", got)
	}
}

// --- Full stacks: the Table 1 configurations all preserve connectivity. ---

func TestAllOptimizationStacksPreserveConnectivity(t *testing.T) {
	m := defaultModel()
	stacks := []struct {
		name  string
		alpha float64
		opts  Options
	}{
		{"basic 5π/6", AlphaConnectivity, Options{}},
		{"basic 2π/3", AlphaAsymmetric, Options{}},
		{"op1 5π/6", AlphaConnectivity, Options{ShrinkBack: true}},
		{"op1 2π/3", AlphaAsymmetric, Options{ShrinkBack: true}},
		{"op1+op2 2π/3", AlphaAsymmetric, Options{ShrinkBack: true, AsymmetricRemoval: true}},
		{"all 5π/6", AlphaConnectivity, Options{ShrinkBack: true, PairwiseRemoval: true}},
		{"all 2π/3", AlphaAsymmetric, Options{ShrinkBack: true, AsymmetricRemoval: true, PairwiseRemoval: true}},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			for seed := uint64(100); seed < 110; seed++ {
				pos := workload.Uniform(workload.Rand(seed), 80, 1500, 1500)
				gr := MaxPowerGraph(pos, m)
				e := mustRun(t, pos, m, st.alpha)
				topo, err := BuildTopology(e, st.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !graph.SamePartition(gr, topo.G) {
					t.Errorf("seed=%d: stack broke connectivity", seed)
				}
				if !topo.G.IsSubgraphOf(gr) {
					t.Errorf("seed=%d: topology is not a subgraph of G_R", seed)
				}
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	m := defaultModel()
	pos := workload.Uniform(workload.Rand(8), 100, 1500, 1500)
	e := mustRun(t, pos, m, AlphaConnectivity)
	basic, err := BuildTopology(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	allOps, err := BuildTopology(e, Options{ShrinkBack: true, PairwiseRemoval: true})
	if err != nil {
		t.Fatal(err)
	}
	sBasic, sAll := basic.Summarize(), allOps.Summarize()
	if sAll.AvgDegree > sBasic.AvgDegree {
		t.Errorf("optimizations must not increase degree: %v > %v", sAll.AvgDegree, sBasic.AvgDegree)
	}
	if sAll.AvgRadius > sBasic.AvgRadius+1e-9 {
		t.Errorf("optimizations must not increase radius: %v > %v", sAll.AvgRadius, sBasic.AvgRadius)
	}
	if sBasic.Edges != basic.G.EdgeCount() {
		t.Errorf("edge count mismatch")
	}
	if sBasic.BoundaryNodes == 0 {
		t.Errorf("a 1500x1500 region with R=500 must produce boundary nodes")
	}
}
