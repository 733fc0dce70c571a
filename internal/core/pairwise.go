package core

import (
	"fmt"
	"math"
	"slices"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
)

// PairwisePolicy selects which redundant edges the pairwise edge removal
// optimization (§3.3) actually deletes. Theorem 3.6 proves that removing
// *all* redundant edges preserves connectivity, so removing any subset is
// sound; the policies differ in the power/throughput trade-off.
type PairwisePolicy int

const (
	// PairwiseLengthFiltered is the paper's practical rule: a node that
	// detects an incident edge as redundant (it is the apex u of
	// Definition 3.5) removes it only when the edge is longer than the
	// longest non-redundant edge incident to that node — shorter
	// redundant edges do not reduce the node's transmission power but do
	// help throughput, so they stay.
	PairwiseLengthFiltered PairwisePolicy = iota + 1
	// PairwiseRemoveAll removes every redundant edge (the setting of
	// Theorem 3.6). Used by the degree-minimization ablation.
	PairwiseRemoveAll
	// PairwiseEitherEndpoint removes a redundant edge when it is longer
	// than the longest non-redundant edge at either endpoint, regardless
	// of which endpoint detected the redundancy. More aggressive than
	// the paper's rule; kept for the ablation.
	PairwiseEitherEndpoint
	// PairwiseBothEndpoints removes a redundant edge only when both
	// endpoints benefit. More conservative than the paper's rule; kept
	// for the ablation.
	PairwiseBothEndpoints
)

// String implements fmt.Stringer.
func (p PairwisePolicy) String() string {
	switch p {
	case PairwiseLengthFiltered:
		return "length-filtered"
	case PairwiseRemoveAll:
		return "remove-all"
	case PairwiseEitherEndpoint:
		return "either-endpoint"
	case PairwiseBothEndpoints:
		return "both-endpoints"
	default:
		return fmt.Sprintf("PairwisePolicy(%d)", int(p))
	}
}

// EdgeID is the paper's lexicographic edge identifier
// eid(u,v) = (d(u,v), max(ID_u, ID_v), min(ID_u, ID_v)). Node indices
// serve as the unique node IDs the optimization requires.
type EdgeID struct {
	Dist  float64
	MaxID int
	MinID int
}

// edgeID computes eid(u,v) for the placement.
func edgeID(pos []geom.Point, u, v int) EdgeID {
	id := EdgeID{Dist: pos[u].Dist(pos[v])}
	if u > v {
		id.MaxID, id.MinID = u, v
	} else {
		id.MaxID, id.MinID = v, u
	}
	return id
}

// Less orders edge IDs lexicographically.
func (a EdgeID) Less(b EdgeID) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.MaxID != b.MaxID {
		return a.MaxID < b.MaxID
	}
	return a.MinID < b.MinID
}

// Pairwise is the pairwise edge removal kernel (§3.3). It caches, per
// node u of the symmetric pre-removal graph gpre, the two quantities
// every removal decision reads: the ascending list of neighbors v for
// which u detects (u,v) as redundant — u is the apex of Definition 3.5 —
// and the length of u's longest non-redundant incident edge.
// PairwiseRemoval runs it once over a whole graph; a Session keeps one
// and repairs it after every edit of gpre.
//
// Every decision is a pure function of (gpre, pos), so the order in
// which nodes and edges are visited never changes a result.
//
// On a radio that is not distance-pure, redundancy also requires the
// two neighbors the test compares to be adjacent in gpre. Theorem 3.6's
// proof joins v and w by edges of smaller eid: on the power law the
// triangle gives d(v,w) < d(u,v) ≤ R, so v–w is a G_R edge, and the
// argument behind Theorem 2.1 connects its endpoints in gpre. Per-link
// shadowing can cut that link, or leave it out of gpre, so there the
// kernel demands the edge itself. Then every removed edge (u,v) has the
// path v–w–u in gpre, both of smaller eid, since d(v,w) < d(u,v) is
// geometry on any radio; by induction over eid, g keeps gpre's
// components.
type Pairwise struct {
	policy  PairwisePolicy
	pure    bool      // the radio is distance-pure: no adjacency test
	apex    [][]int32 // apex[u]: ascending v with (u,v) redundant at apex u
	longest []float64 // longest[u]: 0 when u has no non-redundant edge

	// Repair scratch: the two visit sets, stamped with gen, and the
	// per-neighbor edge ids and bearings of the node being evaluated.
	in1, in2 []int
	gen      int
	s1, s2   []int
	ids      []EdgeID
	bearings []float64
	// added and removed hold the last Repair's diff of g.
	added, removed []graph.Edge
}

// NewPairwise evaluates pairwise edge removal over the whole symmetric
// graph gpre under the given policy (zero means PairwiseLengthFiltered)
// on a radio whose DistancePure is pure. It returns the kernel state,
// the pruned graph g and the edges removed, in canonical (U, V) order.
// gpre is not modified.
func NewPairwise(gpre *graph.Graph, pos []geom.Point, policy PairwisePolicy, pure bool) (*Pairwise, *graph.Graph, []graph.Edge) {
	n := gpre.Len()
	p := &Pairwise{policy: policy, pure: pure}
	p.grow(n)
	// One arena holds every apex list: a list never outgrows its node's
	// degree, so only a later repair that raises the degree reallocates.
	arena := make([]int32, 2*gpre.EdgeCount())
	off := 0
	for u := 0; u < n; u++ {
		deg := gpre.Degree(u)
		p.apex[u] = arena[off : off : off+deg]
		off += deg
		p.evalApex(gpre, pos, u)
	}
	for u := 0; u < n; u++ {
		p.evalLongest(gpre, pos, u)
	}
	half := make([][]int32, n)
	kept := make([]int32, 0, gpre.EdgeCount())
	var removed []graph.Edge
	for u := 0; u < n; u++ {
		start := len(kept)
		for _, v := range gpre.Row(u) {
			if int(v) <= u {
				continue
			}
			if e := (graph.Edge{U: u, V: int(v)}); p.drop(e, pos) {
				removed = append(removed, e)
			} else {
				kept = append(kept, v)
			}
		}
		half[u] = kept[start:len(kept):len(kept)]
	}
	return p, graph.NewFromHalfRows(half), removed
}

// PairwiseRemoval applies the pairwise edge removal optimization to the
// symmetric graph g and returns the pruned graph together with the edges
// it removed, in canonical (U, V) order. It is one full pass of the
// Pairwise kernel on a distance-pure radio.
func PairwiseRemoval(g *graph.Graph, pos []geom.Point, policy PairwisePolicy) (*graph.Graph, []graph.Edge) {
	_, out, removed := NewPairwise(g, pos, policy, true)
	return out, removed
}

// Repair brings g, the pruned graph of an earlier gpre, back in line
// with the edited gpre and positions pos, and returns g's own edge diff.
// gone lists the edges removed from gpre; changed lists the endpoints of
// every edge added to or removed from gpre, plus every node that moved.
// Duplicates in either list are harmless, and g and gpre must have the
// same node count. The returned slices are valid until the next Repair.
//
// The re-decided region follows from what each quantity reads. Apex
// redundancy of u reads u's row and the positions of u and its
// neighbors, so it is recomputed on S₁ = changed ∪ N(changed). u's
// longest non-redundant edge reads the apex state at both ends of each
// of u's edges, so it is recomputed on S₂ = S₁ ∪ N(S₁). A decision reads
// both endpoints' apex state and longest edge, so every gpre edge
// incident to S₂ is re-decided. N(·) means neighbors in the edited gpre:
// a node that lost its edge to a changed node is itself an endpoint of
// the diff. On a radio that is not distance-pure, apex redundancy of u
// also reads whether two of u's neighbors are adjacent, and S₁ still
// covers that read: an edit of v–w puts v and w in changed, so every
// common neighbor of v and w lies in N(changed).
func (p *Pairwise) Repair(gpre, g *graph.Graph, pos []geom.Point, gone []graph.Edge, changed []int) (added, removed []graph.Edge) {
	p.grow(gpre.Len())
	added, removed = p.added[:0], p.removed[:0]
	for _, e := range gone {
		// An edge removed and re-added within one repair is still in gpre;
		// its endpoints are in changed, so it is re-decided below.
		if !gpre.HasEdge(e.U, e.V) && g.RemoveEdge(e.U, e.V) {
			removed = append(removed, e)
		}
	}
	p.gen++
	s1 := p.s1[:0]
	for _, u := range changed {
		s1 = p.visit(s1, p.in1, u)
		for _, v := range gpre.Row(u) {
			s1 = p.visit(s1, p.in1, int(v))
		}
	}
	s2 := p.s2[:0]
	for _, u := range s1 {
		p.evalApex(gpre, pos, u)
		s2 = p.visit(s2, p.in2, u)
		for _, v := range gpre.Row(u) {
			s2 = p.visit(s2, p.in2, int(v))
		}
	}
	for _, u := range s2 {
		p.evalLongest(gpre, pos, u)
	}
	for _, u := range s2 {
		for _, v := range gpre.Row(u) {
			e := graph.NewEdge(u, int(v))
			if p.drop(e, pos) {
				if g.RemoveEdge(e.U, e.V) {
					removed = append(removed, e)
				}
			} else if g.AddEdge(e.U, e.V) {
				added = append(added, e)
			}
		}
	}
	p.s1, p.s2 = s1, s2
	p.added, p.removed = added, removed
	return added, removed
}

// grow extends the per-node state to n nodes; new nodes start isolated.
func (p *Pairwise) grow(n int) {
	if k := n - len(p.apex); k > 0 {
		p.apex = append(p.apex, make([][]int32, k)...)
		p.longest = append(p.longest, make([]float64, k)...)
		p.in1 = append(p.in1, make([]int, k)...)
		p.in2 = append(p.in2, make([]int, k)...)
	}
}

// visit appends u to set unless this Repair's stamp already marks it.
func (p *Pairwise) visit(set []int, stamp []int, u int) []int {
	if stamp[u] != p.gen {
		stamp[u] = p.gen
		set = append(set, u)
	}
	return set
}

// evalApex evaluates Definition 3.5 at apex u: (u,v) is redundant if u
// has another neighbor w with ∠vuw < π/3 and eid(u,w) < eid(u,v) — and,
// on a radio that is not distance-pure, w–v ∈ gpre. The angle
// comparison is strict (an Eps guard keeps exactly-π/3 configurations
// non-redundant, as the triangle argument of the proof requires).
func (p *Pairwise) evalApex(gpre *graph.Graph, pos []geom.Point, u int) {
	const third = math.Pi / 3
	row := gpre.Row(u)
	ids, bearings := p.ids[:0], p.bearings[:0]
	for _, v := range row {
		ids = append(ids, edgeID(pos, u, int(v)))
		bearings = append(bearings, pos[u].Bearing(pos[v]))
	}
	out := p.apex[u][:0]
	for i, v := range row {
		for j, w := range row {
			if j != i && ids[j].Less(ids[i]) && geom.AngularDist(bearings[i], bearings[j]) < third-geom.Eps &&
				(p.pure || gpre.HasEdge(int(v), int(w))) {
				out = append(out, v)
				break
			}
		}
	}
	p.apex[u] = out
	p.ids, p.bearings = ids, bearings
}

// evalLongest recomputes u's longest non-redundant incident edge: an edge
// is redundant when either endpoint detected it.
func (p *Pairwise) evalLongest(gpre *graph.Graph, pos []geom.Point, u int) {
	var longest float64
	for _, v := range gpre.Row(u) {
		if !hasID(p.apex[u], v) && !hasID(p.apex[v], int32(u)) {
			if d := pos[u].Dist(pos[v]); d > longest {
				longest = d
			}
		}
	}
	p.longest[u] = longest
}

// drop decides whether the policy removes edge e. A node whose incident
// edges are all redundant has no longest non-redundant edge and keeps
// them all (defensive: the theorem implies this cannot happen for
// non-isolated nodes, but floating-point edge cases must not isolate
// anyone).
func (p *Pairwise) drop(e graph.Edge, pos []geom.Point) bool {
	atU, atV := hasID(p.apex[e.U], int32(e.V)), hasID(p.apex[e.V], int32(e.U))
	if !atU && !atV {
		return false
	}
	if p.policy == PairwiseRemoveAll {
		return true
	}
	d := pos[e.U].Dist(pos[e.V])
	benefitsU := p.longest[e.U] > 0 && d > p.longest[e.U]
	benefitsV := p.longest[e.V] > 0 && d > p.longest[e.V]
	switch p.policy {
	case PairwiseEitherEndpoint:
		return benefitsU || benefitsV
	case PairwiseBothEndpoints:
		return benefitsU && benefitsV
	default: // PairwiseLengthFiltered: the detecting apex must benefit
		return (atU && benefitsU) || (atV && benefitsV)
	}
}

// hasID reports whether the ascending list holds v.
func hasID(list []int32, v int32) bool {
	_, found := slices.BinarySearch(list, v)
	return found
}
