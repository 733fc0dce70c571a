// Package baseline implements the position-based topology-control
// comparators the paper's related-work section cites: the relative
// neighborhood graph (Toussaint [15]), the Gabriel graph ([5]), the
// Yao/θ-graph ([3,7] — the position-based cousin of the cone idea), and
// the minimum-maximum-radius assignment in the spirit of Ramanathan &
// Rosales-Hain [12]. All constructions are restricted to the
// maximum-power graph G_R, which the package takes from core: the
// comparators enumerate exactly the links the CBTC oracle and G_R use,
// under the same max-power link rule.
//
// Unlike CBTC, every baseline here requires exact position information —
// reproducing the paper's argument that CBTC achieves comparable
// topologies from directional measurements alone.
//
// Every construction runs on an Index built once over the placement: its
// G_R rows enumerate the candidate pairs, and its grid answers the
// "nodes within r of p" queries of the witness scans, so the baselines
// scale the same way the CBTC oracle does.
package baseline

import (
	"fmt"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
)

// Index is a reusable accelerator for one placement and radio: every
// baseline construction over the same placement shares its grid and its
// G_R. It is safe for concurrent use — all methods are read-only.
type Index struct {
	pos  []geom.Point
	prop radio.Propagation
	grid *spatial.Grid
	gr   *graph.Graph
}

// NewIndex builds the shared accelerator for the placement under the
// power law with maximum radius r.
func NewIndex(pos []geom.Point, r float64) *Index {
	return NewPropagationIndex(pos, radio.Default(r))
}

// NewPropagationIndex builds the shared accelerator for the placement
// under an arbitrary propagation model: the grid is sized to the model's
// per-link radius bound, and G_R is core's, built once over that grid.
func NewPropagationIndex(pos []geom.Point, p radio.Propagation) *Index {
	grid := spatial.New(pos, p.MaxLinkRadius())
	return &Index{pos: pos, prop: p, grid: grid, gr: core.MaxPowerGraphParallelIndexed(pos, p, grid, 1)}
}

// within returns the ids within radius rad of p in ascending order — a
// tight superset query (widened by spatial.QuerySlack) whose results the
// callers re-check with their construction's exact predicate, so edge
// sets are identical to a naive full scan.
func (ix *Index) within(p geom.Point, rad float64) []int {
	return ix.grid.Within(p, rad*(1+spatial.QuerySlack))
}

// MaxPowerGraph returns the index's G_R, shared with every construction
// and every caller: it must not be mutated.
func (ix *Index) MaxPowerGraph() *graph.Graph {
	return ix.gr
}

// RNG returns the relative neighborhood graph over G_R: the G_R edge
// {u,v} survives iff no witness w is strictly closer to both endpoints
// than they are to each other. The RNG contains the Euclidean MST of
// every component, so it preserves G_R's connectivity. Witnesses for
// {u,v} are strictly within d(u,v) of u, so the witness scan is a
// radius-d(u,v) query instead of a full placement pass.
func (ix *Index) RNG() *graph.Graph {
	n := len(ix.pos)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for _, v32 := range ix.gr.Row(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			d2 := ix.pos[u].Dist2(ix.pos[v])
			witness := false
			for _, w := range ix.within(ix.pos[u], math.Sqrt(d2)) {
				if w == u || w == v {
					continue
				}
				if ix.pos[w].Dist2(ix.pos[u]) < d2 && ix.pos[w].Dist2(ix.pos[v]) < d2 {
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

// Gabriel returns the Gabriel graph over G_R: the edge {u,v} survives
// iff no other node lies strictly inside the circle having uv as its
// diameter. RNG ⊆ Gabriel ⊆ G_R. The blocking circle has radius
// d(u,v)/2, so the witness scan is a radius query around the midpoint.
func (ix *Index) Gabriel() *graph.Graph {
	n := len(ix.pos)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for _, v32 := range ix.gr.Row(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			d2 := ix.pos[u].Dist2(ix.pos[v])
			center := ix.pos[u].Midpoint(ix.pos[v])
			rad2 := d2 / 4
			inside := false
			for _, w := range ix.within(center, math.Sqrt(rad2)) {
				if w == u || w == v {
					continue
				}
				if ix.pos[w].Dist2(center) < rad2 {
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

// Yao returns the Yao (θ-) digraph over G_R with k sectors: each node
// keeps, in each of k equal angular sectors, a directed edge to its
// nearest in-range neighbor (ties broken by index). For k ≥ 6 (sector
// angle ≤ π/3) the symmetric closure preserves G_R's connectivity — the
// positional analogue of CBTC's cone condition.
func (ix *Index) Yao(k int) (*graph.Digraph, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: Yao needs k ≥ 1 sectors, got %d", k)
	}
	n := len(ix.pos)
	d := graph.NewDigraph(n)
	sector := geom.TwoPi / float64(k)
	best := make([]int, k)
	bestD2 := make([]float64, k)
	for u := 0; u < n; u++ {
		for s := 0; s < k; s++ {
			best[s] = -1
			bestD2[s] = math.Inf(1)
		}
		for _, v32 := range ix.gr.Row(u) {
			v := int(v32)
			d2 := ix.pos[u].Dist2(ix.pos[v])
			s := int(ix.pos[u].Bearing(ix.pos[v]) / sector)
			if s >= k { // bearing can round to exactly 2π
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
	return d, nil
}

// YaoSymmetric returns the symmetric closure of the Yao digraph.
func (ix *Index) YaoSymmetric(k int) (*graph.Graph, error) {
	d, err := ix.Yao(k)
	if err != nil {
		return nil, err
	}
	return d.SymmetricClosure(), nil
}

// BetaSkeleton returns the lune-based β-skeleton over G_R for β ≥ 1 —
// the "G_β graphs" family the paper cites alongside the RNG: the edge
// {u,v} survives iff no other node lies strictly inside the β-lune, the
// intersection of the two disks of radius β·d(u,v)/2 centered at the
// points (1-β/2)·u + (β/2)·v and (β/2)·u + (1-β/2)·v. β = 1 is the
// Gabriel graph; β = 2 is the relative neighborhood graph; the family
// is edge-monotone decreasing in β. Lune members lie within the first
// disk, so one radius query around its center bounds the witness scan.
func (ix *Index) BetaSkeleton(beta float64) (*graph.Graph, error) {
	if beta < 1 {
		return nil, fmt.Errorf("baseline: lune-based skeleton needs β ≥ 1, got %v", beta)
	}
	n := len(ix.pos)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for _, v32 := range ix.gr.Row(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			lRad := beta * math.Sqrt(ix.pos[u].Dist2(ix.pos[v])) / 2
			c1 := ix.pos[u].Scale(1 - beta/2).Add(ix.pos[v].Scale(beta / 2))
			c2 := ix.pos[u].Scale(beta / 2).Add(ix.pos[v].Scale(1 - beta/2))
			inside := false
			for _, w := range ix.within(c1, lRad) {
				if w == u || w == v {
					continue
				}
				if ix.pos[w].Dist(c1) < lRad && ix.pos[w].Dist(c2) < lRad {
					inside = true
					break
				}
			}
			if !inside {
				g.AddEdge(u, v)
			}
		}
	}
	return g, nil
}

// MinMaxRadius assigns each node the smallest radius that keeps the
// network connected under a common spanning structure — the objective of
// Ramanathan & Rosales-Hain's centralized algorithm. Each node's radius
// is its longest incident edge in the Euclidean minimum spanning forest
// of G_R; the returned graph contains every pair mutually within their
// assigned radii (which always includes the forest itself).
func (ix *Index) MinMaxRadius() (*graph.Graph, []float64) {
	n := len(ix.pos)
	mst := graph.MST(ix.gr, graph.EuclideanWeight(ix.pos))
	radii := make([]float64, n)
	for u := 0; u < n; u++ {
		radii[u] = graph.NodeRadius(mst, ix.pos, u)
	}
	out := graph.New(n)
	for u := 0; u < n; u++ {
		ru := radii[u] * (1 + 1e-12)
		for _, v := range ix.within(ix.pos[u], ru) {
			if v <= u {
				continue
			}
			d := ix.pos[u].Dist(ix.pos[v])
			if d <= radii[u]*(1+1e-12) && d <= radii[v]*(1+1e-12) {
				out.AddEdge(u, v)
			}
		}
	}
	return out, radii
}

// EnergyMST returns the minimum spanning forest of G_R under per-link
// transmission energy — the backbone of the energy-balanced
// reconfiguration baseline. With residual nil the weight of {u,v} is the
// power the propagation model requires to establish the link, so the
// forest minimizes total transmit energy. With residual batteries given
// (one per node, in energy units), each link's energy cost is divided by
// the smaller of its endpoints' residuals: links leaning on nearly-drained
// nodes become expensive and the forest routes around them, spreading
// drain across the population. A fully-depleted endpoint cannot transmit
// at all: its links are dropped before the spanning pass, so dead nodes
// come out isolated and the forest reroutes around them.
func (ix *Index) EnergyMST(residual []float64) *graph.Graph {
	gr := ix.gr
	if residual != nil {
		pruned := graph.New(gr.Len())
		for u := 0; u < gr.Len(); u++ {
			if residual[u] <= 0 {
				continue
			}
			for _, v := range gr.Neighbors(u) {
				if u < v && residual[v] > 0 {
					pruned.AddEdge(u, v)
				}
			}
		}
		gr = pruned
	}
	w := func(u, v int) float64 {
		d := ix.pos[u].Dist(ix.pos[v])
		cost := ix.prop.LinkPower(u, v, d)
		if residual != nil {
			cost /= math.Min(residual[u], residual[v])
		}
		return cost
	}
	return graph.MST(gr, w)
}
