package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// This file keeps the map-based pairwise edge removal the package used
// before the Pairwise kernel: one map of redundant edges plus one map
// per apex, rebuilt over the whole graph on every call. The tests below
// require the kernel — a full pass and every Repair — to make exactly
// the same decisions.

// redundancy records, for every redundant edge, which endpoints detected
// it (served as the apex u of Definition 3.5).
type redundancy struct {
	edges map[graph.Edge]bool
	// list holds the redundant edges in canonical detection order — apex
	// id ascending, then the apex's ascending neighbor row. The removal
	// passes iterate list, never the map, so removal decisions and the
	// reported edge order are order-stable by construction.
	list []graph.Edge
	// atApex[u] holds the neighbors v for which u detected (u,v) as
	// redundant.
	atApex []map[int]bool
}

// redundantEdges evaluates Definition 3.5 over the whole graph: (u,v) is
// redundant if u has another neighbor w with ∠vuw < π/3 and
// eid(u,w) < eid(u,v) — and, unless the radio is distance-pure, w–v is
// an edge of g. The angle comparison is strict (an Eps guard keeps
// exactly-π/3 configurations non-redundant, as the triangle argument of
// the proof requires).
func redundantEdges(g *graph.Graph, pos []geom.Point, pure bool) redundancy {
	red := redundancy{
		edges:  make(map[graph.Edge]bool),
		atApex: make([]map[int]bool, g.Len()),
	}
	const third = math.Pi / 3
	for u := 0; u < g.Len(); u++ {
		red.atApex[u] = make(map[int]bool)
		nbrs := g.Row(u)
		for _, v32 := range nbrs {
			v := int(v32)
			eidUV := edgeID(pos, u, v)
			for _, w32 := range nbrs {
				w := int(w32)
				if w == v {
					continue
				}
				angle := geom.AngularDist(pos[u].Bearing(pos[v]), pos[u].Bearing(pos[w]))
				if angle < third-geom.Eps && edgeID(pos, u, w).Less(eidUV) && (pure || g.HasEdge(v, w)) {
					e := graph.NewEdge(u, v)
					if !red.edges[e] {
						red.edges[e] = true
						red.list = append(red.list, e)
					}
					red.atApex[u][v] = true
					break
				}
			}
		}
	}
	return red
}

// pairwiseRemovalRef applies the pairwise edge removal optimization to the
// symmetric graph g and returns the pruned graph together with the edges
// it removed (sorted canonically, for reporting).
func pairwiseRemovalRef(g *graph.Graph, pos []geom.Point, policy PairwisePolicy, pure bool) (*graph.Graph, []graph.Edge) {
	red := redundantEdges(g, pos, pure)
	out := g.Clone()
	var removed []graph.Edge

	if policy == PairwiseRemoveAll {
		for _, e := range red.list {
			out.RemoveEdge(e.U, e.V)
			removed = append(removed, e)
		}
		sortEdges(removed)
		return out, removed
	}

	// Longest non-redundant incident edge per node. A node whose
	// incident edges are all redundant keeps them all (defensive: the
	// theorem implies this cannot happen for non-isolated nodes, but
	// floating-point edge cases must not isolate anyone).
	longestNR := make([]float64, g.Len())
	for u := 0; u < g.Len(); u++ {
		g.EachNeighbor(u, func(v int) {
			if !red.edges[graph.NewEdge(u, v)] {
				if d := pos[u].Dist(pos[v]); d > longestNR[u] {
					longestNR[u] = d
				}
			}
		})
	}
	benefits := func(u int, d float64) bool {
		return longestNR[u] > 0 && d > longestNR[u]
	}
	for _, e := range red.list {
		d := pos[e.U].Dist(pos[e.V])
		var drop bool
		switch policy {
		case PairwiseEitherEndpoint:
			drop = benefits(e.U, d) || benefits(e.V, d)
		case PairwiseBothEndpoints:
			drop = benefits(e.U, d) && benefits(e.V, d)
		default: // PairwiseLengthFiltered: the detecting apex must benefit
			drop = (red.atApex[e.U][e.V] && benefits(e.U, d)) ||
				(red.atApex[e.V][e.U] && benefits(e.V, d))
		}
		if drop {
			out.RemoveEdge(e.U, e.V)
			removed = append(removed, e)
		}
	}
	sortEdges(removed)
	return out, removed
}

func sortEdges(edges []graph.Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
}

var refPolicies = []PairwisePolicy{
	PairwiseLengthFiltered,
	PairwiseRemoveAll,
	PairwiseEitherEndpoint,
	PairwiseBothEndpoints,
}

// Full removal must match the reference graph for graph and removed
// edge for edge, in order, under every policy — on E_α and on the
// shrunk-back E^s_α, at both cone angles the paper's stacks use, on the
// power law and on a shadowed radio.
func TestPairwiseMatchesReference(t *testing.T) {
	m := defaultModel()
	shadowed, err := radio.NewLogDistance(m, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 20; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 90, 1500, 1500)
		alpha := AlphaConnectivity
		if seed%2 == 1 {
			alpha = AlphaAsymmetric
		}
		for _, prop := range []radio.Propagation{m, shadowed} {
			pure := prop.DistancePure()
			e, err := Run(pos, prop, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, shrink := range []bool{false, true} {
				exec := e
				if shrink {
					exec = ShrinkBack(e)
				}
				gpre := exec.Nalpha().SymmetricClosure()
				for _, policy := range refPolicies {
					_, got, gotRemoved := NewPairwise(gpre, pos, policy, pure)
					want, wantRemoved := pairwiseRemovalRef(gpre, pos, policy, pure)
					if !got.Equal(want) {
						t.Fatalf("seed %d pure %v shrink %v %v: pruned graph differs from the reference", seed, pure, shrink, policy)
					}
					if !slices.Equal(gotRemoved, wantRemoved) {
						t.Fatalf("seed %d pure %v shrink %v %v: removed %v, reference %v", seed, pure, shrink, policy, gotRemoved, wantRemoved)
					}
				}
			}
		}
	}
}

// FuzzPairwiseRepair decodes ops into edits of a CBTC graph gpre — edge
// additions, edge removals, node moves and joins — grouped into repairs.
// After every Repair the maintained g must equal the reference removal
// over the edited gpre. Each op is three bytes: kind, node a, argument b.
// An odd seed builds gpre on a shadowed radio, whose redundancy test
// also reads adjacency in gpre.
func FuzzPairwiseRepair(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 77))
		for pick := byte(0); pick < 4; pick++ {
			ops := make([]byte, 180)
			for i := range ops {
				ops[i] = byte(rng.IntN(256))
			}
			f.Add(seed, pick, ops)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, pick byte, ops []byte) {
		// Every op may grow the graph and every repair rebuilds the
		// reference, so long inputs are cut to keep one exec short.
		if len(ops) > 600 {
			ops = ops[:600]
		}
		policy := refPolicies[int(pick)%len(refPolicies)]
		pos := workload.Uniform(rand.New(rand.NewPCG(seed, 3)), 30, 1200, 1200)
		var prop radio.Propagation = defaultModel()
		if seed%2 == 1 {
			shadowed, err := radio.NewLogDistance(defaultModel(), 4, seed)
			if err != nil {
				t.Fatal(err)
			}
			prop = shadowed
		}
		pure := prop.DistancePure()
		exec, err := Run(pos, prop, AlphaConnectivity)
		if err != nil {
			t.Fatal(err)
		}
		gpre := exec.Nalpha().SymmetricClosure()
		p, g, _ := NewPairwise(gpre, pos, policy, pure)
		var gone []graph.Edge
		var changed []int
		repair := func(step int) {
			p.Repair(gpre, g, pos, gone, changed)
			if want, _ := pairwiseRemovalRef(gpre, pos, policy, pure); !g.Equal(want) {
				t.Fatalf("%v, op %d: repaired graph differs from the reference", policy, step)
			}
			gone, changed = gone[:0], changed[:0]
		}
		for i := 0; i+2 < len(ops); i += 3 {
			n := len(pos)
			a, b := int(ops[i+1])%n, ops[i+2]
			// b's low six bits give a move's direction, its top two bits
			// the scale: a few units — enough to flip an angle or an eid
			// order near a threshold — up to a few hundred.
			step := [4]float64{1, 8, 30, 100}[b>>6]
			delta := geom.Pt(float64(int(b&7)-3)*step, float64(int(b>>3&7)-3)*step)
			switch ops[i] % 5 {
			case 0:
				if v := int(b) % n; v != a && gpre.AddEdge(a, v) {
					changed = append(changed, a, v)
				}
			case 1:
				if row := gpre.Row(a); len(row) > 0 {
					v := int(row[int(b)%len(row)])
					gpre.RemoveEdge(a, v)
					gone = append(gone, graph.NewEdge(a, v))
					changed = append(changed, a, v)
				}
			case 2:
				pos[a] = geom.Pt(pos[a].X+delta.X, pos[a].Y+delta.Y)
				changed = append(changed, a)
			case 3:
				pos = append(pos, geom.Pt(pos[a].X+delta.X*10, pos[a].Y+delta.Y*10))
				gpre.Grow(1)
				g.Grow(1)
				gpre.AddEdge(n, a)
				changed = append(changed, n, a)
			case 4:
				repair(i / 3)
			}
		}
		repair(len(ops) / 3)
	})
}
