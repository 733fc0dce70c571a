package graph

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"cbtc/internal/geom"
)

// MaxDegree returns the largest node degree.
func MaxDegree(g *Graph) int {
	max := 0
	for u := 0; u < g.Len(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// EdgeLengths returns the sorted list of Euclidean edge lengths of g.
func EdgeLengths(g *Graph, pos []geom.Point) []float64 {
	edges := g.Edges()
	out := make([]float64, len(edges))
	for i, e := range edges {
		out[i] = pos[e.U].Dist(pos[e.V])
	}
	sort.Float64s(out)
	return out
}

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

// hopStretchRef is HopStretch by its definition: a BFS over both graphs
// from every source, with a fresh distance slice and a shifted queue per
// pass, and the ratio of every pair connected in base.
func hopStretchRef(base, sub *Graph) float64 {
	if base.Len() != sub.Len() {
		return math.Inf(1)
	}
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

// relativeNeighborhood returns the relative-neighbourhood graph of g:
// the edges uv of g with no node w closer to both u and v than they are
// to each other. On a unit-disk graph it keeps the Euclidean minimum
// spanning forest, and so g's components.
func relativeNeighborhood(g *Graph, pos []geom.Point) *Graph {
	out := New(g.Len())
	for _, e := range g.Edges() {
		d := pos[e.U].Dist2(pos[e.V])
		lune := false
		for w := range pos {
			if pos[w].Dist2(pos[e.U]) < d && pos[w].Dist2(pos[e.V]) < d {
				lune = true
				break
			}
		}
		if !lune {
			out.AddEdge(e.U, e.V)
		}
	}
	return out
}

// hopStretchCases returns the (base, sub) pairs of
// TestHopStretchMatchesReference: 32 random edge sets with random
// subsets of them, connected or not, then 32 unit-disk graphs of random
// radius with their relative-neighbourhood graphs, which are sparse and
// keep the base's components, as G_α keeps G_R's.
func hopStretchCases() [][2]*Graph {
	rng := rand.New(rand.NewPCG(25, 2))
	var cases [][2]*Graph
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
		cases = append(cases, [2]*Graph{base, sub})
	}
	for iter := 0; iter < 32; iter++ {
		n := 2 + rng.IntN(63)
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64(), rng.Float64())
		}
		r2 := math.Pow(0.15+0.25*rng.Float64(), 2)
		base := New(n)
		for u := range pos {
			for v := u + 1; v < n; v++ {
				if pos[u].Dist2(pos[v]) <= r2 {
					base.AddEdge(u, v)
				}
			}
		}
		cases = append(cases, [2]*Graph{base, relativeNeighborhood(base, pos)})
	}
	return cases
}

// HopStretch equals the all-pairs reference bit for bit on every
// hopStretchCases pair, and makes at most three allocations whatever the
// graph's size. It makes two: the distance buffer and the queue that its
// searches share.
func TestHopStretchMatchesReference(t *testing.T) {
	for i, c := range hopStretchCases() {
		base, sub := c[0], c[1]
		got, want := HopStretch(base, sub), hopStretchRef(base, sub)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: HopStretch %v, reference %v", i, got, want)
		}
		if allocs := testing.AllocsPerRun(3, func() { HopStretch(base, sub) }); allocs > 3 {
			t.Fatalf("case %d: HopStretch on %d nodes allocates %.0f objects, want at most 3", i, base.Len(), allocs)
		}
	}
}

// encodeHopStretch writes base and sub in FuzzHopStretch's input format.
func encodeHopStretch(base, sub *Graph) []byte {
	data := []byte{byte(base.Len()), byte(sub.Len())}
	for _, e := range base.Edges() {
		mode := byte(1)
		if e.V < sub.Len() && sub.HasEdge(e.U, e.V) {
			mode = 0
		}
		data = append(data, mode<<6|byte(e.U), byte(e.V))
	}
	for _, e := range sub.Edges() {
		if e.V >= base.Len() || !base.HasEdge(e.U, e.V) {
			data = append(data, 2<<6|byte(e.U), byte(e.V))
		}
	}
	return data
}

// decodeHopStretch reads FuzzHopStretch's input: the sizes of base and
// sub (each mod 65), then one edge per byte pair. The low six bits of
// each byte give an endpoint, taken mod the graph's size; the first
// byte's top two bits name the graphs that get the edge: 1 base alone,
// 2 sub alone, 0 or 3 both.
func decodeHopStretch(data []byte) (base, sub *Graph) {
	if len(data) < 2 {
		return New(0), New(0)
	}
	base, sub = New(int(data[0])%65), New(int(data[1])%65)
	add := func(g *Graph, u, v int) {
		if n := g.Len(); n > 0 {
			g.AddEdge(u%n, v%n)
		}
	}
	for i := 2; i+1 < len(data); i += 2 {
		mode, u, v := data[i]>>6, int(data[i]&63), int(data[i+1]&63)
		if mode != 2 {
			add(base, u, v)
		}
		if mode != 1 {
			add(sub, u, v)
		}
	}
	return base, sub
}

// FuzzHopStretch: on any two graphs of up to 64 nodes, HopStretch equals
// the all-pairs reference bit for bit. sub may hold edges outside base,
// isolated nodes and disconnected parts, and the graphs may differ in
// size. The corpus starts from TestHopStretchMatchesReference's pairs.
func FuzzHopStretch(f *testing.F) {
	for _, c := range hopStretchCases() {
		f.Add(encodeHopStretch(c[0], c[1]))
	}
	ring := pathGraph(6)
	ring.AddEdge(0, 5)
	f.Add(encodeHopStretch(pathGraph(6), ring))
	f.Add(encodeHopStretch(ring, pathGraph(7)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		base, sub := decodeHopStretch(data)
		got, want := HopStretch(base, sub), hopStretchRef(base, sub)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("base %d nodes %v, sub %d nodes %v: HopStretch %v, reference %v",
				base.Len(), base.Edges(), sub.Len(), sub.Edges(), got, want)
		}
	})
}
