package cbtc

import (
	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
)

// Result is the outcome of a topology-control run.
//
// The graphs a Result carries are read-only views: session snapshots
// hand out copy-on-write clones whose rows are structurally shared with
// the live session state (either side copies a row before mutating it),
// so a Result stays frozen at its snapshot moment at O(nodes) cost.
// Treat G and GR as immutable; clone them before making local edits.
type Result struct {
	// G is the final symmetric communication graph.
	G *Graph
	// GR is the maximum-power graph the run started from; G is always a
	// subgraph of GR and (for α ≤ 5π/6) preserves its connectivity.
	GR *Graph
	// Pos echoes the input placement; node i sits at Pos[i].
	Pos []Point
	// Radii holds each node's transmission radius in G: the distance to
	// its farthest neighbor (0 for isolated nodes).
	Radii []float64
	// Powers holds p_{u,α}: each node's final growing-phase power.
	Powers []float64
	// Boundary flags nodes that still had an α-gap at maximum power.
	Boundary []bool
	// AvgDegree and AvgRadius are the two statistics of the paper's
	// Table 1.
	AvgDegree float64
	// AvgRadius is the mean of Radii.
	AvgRadius float64

	topo  *core.Topology
	model radio.Model
}

// newResultWithGR builds a Result against a caller-supplied ground-truth
// graph — the maximum-power graph under the engine's propagation
// authority, the radio G was grown under — computing each node's radius
// in topo.G.
func newResultWithGR(nodes []Point, m radio.Model, topo *core.Topology, gr *Graph) *Result {
	radii := make([]float64, len(nodes))
	for u := range radii {
		radii[u] = topo.Radius(u)
	}
	return newResultFromRadii(nodes, m, topo, gr, radii)
}

// newResultFromRadii assembles a Result around the per-node radius table
// of topo.G, which it adopts — sessions pass a copy of their maintained
// radius cache instead of rescanning every adjacency row. radii[u] must
// equal graph.NodeRadius(topo.G, nodes, u) for every slot; AvgDegree and
// AvgRadius are derived in Topology.Summarize's summation order, so they
// equal its figures bitwise.
func newResultFromRadii(nodes []Point, m radio.Model, topo *core.Topology, gr *Graph, radii []float64) *Result {
	n := len(nodes)
	r := &Result{
		G:        topo.G,
		GR:       gr,
		Pos:      append([]Point(nil), nodes...),
		Radii:    radii,
		Powers:   make([]float64, n),
		Boundary: make([]bool, n),
		topo:     topo,
		model:    m,
	}
	for u := 0; u < n; u++ {
		r.Powers[u] = topo.Exec.Nodes[u].GrowPower
		r.Boundary[u] = topo.Exec.Nodes[u].Boundary
	}
	r.AvgDegree = graph.AvgDegree(topo.G)
	if n > 0 {
		var sum float64
		for _, rad := range radii {
			sum += rad
		}
		r.AvgRadius = sum / float64(n)
	}
	return r
}

// Components returns the number of connected components of G.
func (r *Result) Components() int { return graph.ComponentCount(r.G) }

// PreservesConnectivity reports whether G induces exactly the same
// component partition as GR — the guarantee of Theorem 2.1.
func (r *Result) PreservesConnectivity() bool {
	return graph.SamePartition(r.GR, r.G)
}

// BoundaryCount returns the number of boundary nodes.
func (r *Result) BoundaryCount() int {
	n := 0
	for _, b := range r.Boundary {
		if b {
			n++
		}
	}
	return n
}

// BeaconPower returns the §4 beacon power node u must use so that
// dynamic reconfiguration preserves connectivity under the configured
// optimization stack. It is only meaningful for results produced by Run
// or Simulate (the max-power baseline simply beacons at max power).
func (r *Result) BeaconPower(u int) float64 {
	if r.topo == nil {
		return r.model.MaxPower()
	}
	return r.topo.BeaconPower(u)
}

// PowerCost returns the transmission power corresponding to a radius
// under the run's path-loss model: p(d) = d^n.
func (r *Result) PowerCost(radius float64) float64 { return r.model.PowerFor(radius) }

// PowerStretch returns the worst-case ratio between minimum-energy route
// costs in G versus GR, using p(d) = d^n per hop. The paper's §1 cites a
// k+2k·sin(α/2)-competitiveness bound for α ≤ π/2; this measures the
// actual value.
func (r *Result) PowerStretch() float64 {
	return graph.Stretch(r.GR, r.G, graph.PowerWeight(r.Pos, r.model.Exponent))
}

// DistanceStretch returns the worst-case ratio between shortest route
// lengths (in Euclidean distance) in G versus GR.
func (r *Result) DistanceStretch() float64 {
	return graph.Stretch(r.GR, r.G, graph.EuclideanWeight(r.Pos))
}

// HopStretch returns the worst-case ratio between hop counts in G versus
// GR.
func (r *Result) HopStretch() float64 {
	return graph.HopStretch(r.GR, r.G)
}

// DirectedNeighbors returns N_α(u): the directed neighbor set node u
// discovered during its growing phase, after per-node pruning. The
// relation is not symmetric for α > 2π/3 (Example 2.1); G is its
// symmetric closure (or mutual subset under asymmetric removal). It
// returns nil for results without an execution (the max-power baseline
// and the position-based baselines).
func (r *Result) DirectedNeighbors(u int) []int {
	if r.topo == nil {
		return nil
	}
	nbs := r.topo.Exec.Nodes[u].Neighbors
	out := make([]int, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.ID
	}
	return out
}

// RemovedRedundant returns the edges deleted by pairwise edge removal
// (empty unless PairwiseRemoval was enabled), in canonical order: the
// edges of the pre-removal graph that G lacks.
func (r *Result) RemovedRedundant() []Edge {
	if r.topo == nil || r.topo.Gpre == r.topo.G {
		return nil
	}
	var out []Edge
	for _, e := range r.topo.Gpre.Edges() {
		if !r.topo.G.HasEdge(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}
