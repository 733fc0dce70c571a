package graph

import (
	"math"
	"math/rand/v2"
	"testing"

	"cbtc/internal/geom"
)

func squareLayout() ([]geom.Point, *Graph) {
	// Unit square: 0 bottom-left, 1 bottom-right, 2 top-right, 3 top-left.
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	return pos, g
}

func TestAvgDegree(t *testing.T) {
	_, g := squareLayout()
	if got := AvgDegree(g); math.Abs(got-2) > 1e-12 {
		t.Errorf("AvgDegree = %v, want 2", got)
	}
	if got := AvgDegree(New(0)); got != 0 {
		t.Errorf("AvgDegree(empty) = %v, want 0", got)
	}
	if got := MaxDegree(g); got != 2 {
		t.Errorf("MaxDegree = %v, want 2", got)
	}
}

func TestNodeRadiusAndAvgRadius(t *testing.T) {
	pos, g := squareLayout()
	g.AddEdge(0, 2) // diagonal of length √2
	if got := NodeRadius(g, pos, 0); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("NodeRadius(0) = %v, want √2", got)
	}
	if got := NodeRadius(g, pos, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("NodeRadius(1) = %v, want 1", got)
	}
	want := (math.Sqrt2 + 1 + math.Sqrt2 + 1) / 4
	if got := AvgRadius(g, pos); math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgRadius = %v, want %v", got, want)
	}
}

func TestNodeRadiusIsolated(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5)}
	g := New(2)
	if got := NodeRadius(g, pos, 0); got != 0 {
		t.Errorf("isolated radius = %v, want 0", got)
	}
}

func TestStretchIdentity(t *testing.T) {
	pos, g := squareLayout()
	if got := Stretch(g, g, EuclideanWeight(pos)); math.Abs(got-1) > 1e-12 {
		t.Errorf("self stretch = %v, want 1", got)
	}
	if got := HopStretch(g, g); math.Abs(got-1) > 1e-12 {
		t.Errorf("self hop stretch = %v, want 1", got)
	}
}

func TestStretchDetour(t *testing.T) {
	pos, base := squareLayout()
	base.AddEdge(0, 2) // direct diagonal
	sub := base.Clone()
	sub.RemoveEdge(0, 2) // force the 2-hop detour of length 2
	want := 2 / math.Sqrt2
	if got := Stretch(base, sub, EuclideanWeight(pos)); math.Abs(got-want) > 1e-9 {
		t.Errorf("Stretch = %v, want %v", got, want)
	}
	if got := HopStretch(base, sub); math.Abs(got-2) > 1e-9 {
		t.Errorf("HopStretch = %v, want 2", got)
	}
}

func TestStretchBrokenConnectivity(t *testing.T) {
	pos, base := squareLayout()
	sub := New(4)
	sub.AddEdge(0, 1)
	if got := Stretch(base, sub, EuclideanWeight(pos)); !math.IsInf(got, 1) {
		t.Errorf("Stretch with broken connectivity = %v, want +Inf", got)
	}
	if got := HopStretch(base, sub); !math.IsInf(got, 1) {
		t.Errorf("HopStretch with broken connectivity = %v, want +Inf", got)
	}
}

func TestPowerWeight(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}
	w := PowerWeight(pos, 2)
	if got := w(0, 1); math.Abs(got-25) > 1e-9 {
		t.Errorf("PowerWeight = %v, want 25", got)
	}
}

func TestEdgeLengths(t *testing.T) {
	pos, g := squareLayout()
	g.AddEdge(0, 2)
	lengths := EdgeLengths(g, pos)
	if len(lengths) != 5 {
		t.Fatalf("got %d lengths, want 5", len(lengths))
	}
	for i := 1; i < len(lengths); i++ {
		if lengths[i] < lengths[i-1] {
			t.Fatalf("lengths not sorted: %v", lengths)
		}
	}
	if math.Abs(lengths[4]-math.Sqrt2) > 1e-12 {
		t.Errorf("longest = %v, want √2", lengths[4])
	}
}

// hopStretchRef is HopStretch as it stood before its BFS passes shared
// buffers: a fresh distance slice and a shifted queue per pass.
func hopStretchRef(base, sub *Graph) float64 {
	bfs := func(g *Graph, src int) []int {
		dist := make([]int, g.Len())
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Row(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, int(v))
				}
			}
		}
		return dist
	}
	worst := 1.0
	for src := 0; src < base.Len(); src++ {
		hb, hs := bfs(base, src), bfs(sub, src)
		for v := range hb {
			if v == src || hb[v] <= 0 {
				continue
			}
			if hs[v] < 0 {
				return math.Inf(1)
			}
			if r := float64(hs[v]) / float64(hb[v]); r > worst {
				worst = r
			}
		}
	}
	return worst
}

// HopStretch equals the per-pass reference bit for bit on 32 random
// base graphs and subgraphs of them, connected or not, and makes three
// allocations whatever the graph's size: two distance buffers and one
// queue.
func TestHopStretchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 2))
	for iter := 0; iter < 32; iter++ {
		n := 2 + rng.IntN(60)
		base := New(n)
		for i := 0; i < 3*n; i++ {
			base.AddEdge(rng.IntN(n), rng.IntN(n))
		}
		sub := New(n)
		for _, e := range base.Edges() {
			if rng.IntN(4) != 0 {
				sub.AddEdge(e.U, e.V)
			}
		}
		got, want := HopStretch(base, sub), hopStretchRef(base, sub)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iter %d: HopStretch %v, reference %v", iter, got, want)
		}
		if allocs := testing.AllocsPerRun(3, func() { HopStretch(base, sub) }); allocs > 3 {
			t.Fatalf("iter %d: HopStretch on %d nodes allocates %.0f objects, want 3", iter, n, allocs)
		}
	}
}
