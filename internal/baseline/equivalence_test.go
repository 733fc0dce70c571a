package baseline

import (
	"math"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// The naive reference constructions below are the pre-index O(n²)/O(n³)
// implementations, kept as the ground truth the grid-accelerated package
// code must reproduce edge-for-edge. Their range test is the power law's
// LinkInRange at the pair's distance: the max-power link rule core's G_R
// applies.

func naiveRNG(pos []geom.Point, r float64) *graph.Graph {
	n := len(pos)
	g := graph.New(n)
	m := radio.Default(r)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !m.LinkInRange(u, v, pos[u].Dist(pos[v])) {
				continue
			}
			d2 := pos[u].Dist2(pos[v])
			witness := false
			for w := 0; w < n; w++ {
				if w == u || w == v {
					continue
				}
				if pos[w].Dist2(pos[u]) < d2 && pos[w].Dist2(pos[v]) < d2 {
					witness = true
					break
				}
			}
			if !witness {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func naiveGabriel(pos []geom.Point, r float64) *graph.Graph {
	n := len(pos)
	g := graph.New(n)
	m := radio.Default(r)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !m.LinkInRange(u, v, pos[u].Dist(pos[v])) {
				continue
			}
			d2 := pos[u].Dist2(pos[v])
			center := pos[u].Midpoint(pos[v])
			rad2 := d2 / 4
			inside := false
			for w := 0; w < n; w++ {
				if w == u || w == v {
					continue
				}
				if pos[w].Dist2(center) < rad2 {
					inside = true
					break
				}
			}
			if !inside {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func naiveYao(pos []geom.Point, r float64, k int) *graph.Digraph {
	n := len(pos)
	d := graph.NewDigraph(n)
	sector := geom.TwoPi / float64(k)
	m := radio.Default(r)
	best := make([]int, k)
	bestD2 := make([]float64, k)
	for u := 0; u < n; u++ {
		for s := 0; s < k; s++ {
			best[s] = -1
			bestD2[s] = math.Inf(1)
		}
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			if !m.LinkInRange(u, v, pos[u].Dist(pos[v])) {
				continue
			}
			d2 := pos[u].Dist2(pos[v])
			s := int(pos[u].Bearing(pos[v]) / sector)
			if s >= k {
				s = k - 1
			}
			if d2 < bestD2[s] || (d2 == bestD2[s] && v < best[s]) {
				bestD2[s] = d2
				best[s] = v
			}
		}
		for s := 0; s < k; s++ {
			if best[s] >= 0 {
				d.AddArc(u, best[s])
			}
		}
	}
	return d
}

func naiveBetaSkeleton(pos []geom.Point, r, beta float64) *graph.Graph {
	n := len(pos)
	g := graph.New(n)
	m := radio.Default(r)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !m.LinkInRange(u, v, pos[u].Dist(pos[v])) {
				continue
			}
			d2 := pos[u].Dist2(pos[v])
			lRad := beta * math.Sqrt(d2) / 2
			c1 := pos[u].Scale(1 - beta/2).Add(pos[v].Scale(beta / 2))
			c2 := pos[u].Scale(beta / 2).Add(pos[v].Scale(1 - beta/2))
			inside := false
			for w := 0; w < n; w++ {
				if w == u || w == v {
					continue
				}
				if pos[w].Dist(c1) < lRad && pos[w].Dist(c2) < lRad {
					inside = true
					break
				}
			}
			if !inside {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func naiveMaxPowerGraph(pos []geom.Point, r float64) *graph.Graph {
	m := radio.Default(r)
	gr := graph.New(len(pos))
	for u := range pos {
		for v := u + 1; v < len(pos); v++ {
			if m.LinkInRange(u, v, pos[u].Dist(pos[v])) {
				gr.AddEdge(u, v)
			}
		}
	}
	return gr
}

func naiveMinMaxRadius(pos []geom.Point, r float64) (*graph.Graph, []float64) {
	n := len(pos)
	gr := naiveMaxPowerGraph(pos, r)
	mst := graph.MST(gr, graph.EuclideanWeight(pos))
	radii := make([]float64, n)
	for u := 0; u < n; u++ {
		radii[u] = graph.NodeRadius(mst, pos, u)
	}
	out := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := pos[u].Dist(pos[v])
			if d <= radii[u]*(1+1e-12) && d <= radii[v]*(1+1e-12) {
				out.AddEdge(u, v)
			}
		}
	}
	return out, radii
}

func sameGraph(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	we, ge := want.Edges(), got.Edges()
	if len(we) != len(ge) {
		t.Fatalf("%s: edge counts diverge: naive %d, grid %d", label, len(we), len(ge))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("%s: edge %d diverges: naive %v, grid %v", label, i, we[i], ge[i])
		}
	}
}

// TestGridMatchesNaiveConstructions asserts every grid-accelerated
// baseline reproduces its naive reference edge-for-edge across
// densities, including a tie-heavy lattice placement.
func TestGridMatchesNaiveConstructions(t *testing.T) {
	r := workload.PaperRadius
	for _, tc := range []struct {
		name string
		pos  []geom.Point
	}{
		{"sparse", workload.Uniform(workload.Rand(21), 60, 6000, 6000)},
		{"paper-density", workload.Uniform(workload.Rand(22), 100, 1500, 1500)},
		{"dense", workload.Uniform(workload.Rand(23), 120, 700, 700)},
		{"clustered", workload.Clustered(workload.Rand(24), 100, 4, 200, 3000, 3000)},
		{"lattice-ties", workload.Grid(workload.Rand(25), 64, 0, 1600, 1600)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := NewIndex(tc.pos, r)
			sameGraph(t, "rng", naiveRNG(tc.pos, r), ix.RNG())
			sameGraph(t, "gabriel", naiveGabriel(tc.pos, r), ix.Gabriel())
			yao, err := ix.Yao(6)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, "yao6", naiveYao(tc.pos, r, 6).SymmetricClosure(), yao.SymmetricClosure())
			for _, beta := range []float64{1, 1.5, 2} {
				bs, err := ix.BetaSkeleton(beta)
				if err != nil {
					t.Fatal(err)
				}
				sameGraph(t, "beta-skeleton", naiveBetaSkeleton(tc.pos, r, beta), bs)
			}
			wantG, wantRadii := naiveMinMaxRadius(tc.pos, r)
			gotG, gotRadii := ix.MinMaxRadius()
			sameGraph(t, "minmax-radius", wantG, gotG)
			for i := range wantRadii {
				if wantRadii[i] != gotRadii[i] {
					t.Fatalf("minmax radii diverge at %d: naive %v, grid %v", i, wantRadii[i], gotRadii[i])
				}
			}
			sameGraph(t, "max-power", naiveMaxPowerGraph(tc.pos, r), ix.MaxPowerGraph())
		})
	}
}
