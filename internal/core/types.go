// Package core implements the paper's primary contribution: the
// cone-based topology control algorithm CBTC(α) (§2), its three
// optimizations — shrink-back, asymmetric edge removal, and pairwise
// edge removal (§3) — and the reconfiguration state machine (§4).
//
// The package contains two executors producing the same artifacts:
//
//   - The oracle executor (Run) computes each node's neighbor set under
//     the exact minimal-power semantics of the analysis: p_{u,α} is the
//     smallest power such that every cone of degree α around u contains a
//     reachable node. This matches the setting of Theorems 2.1–3.6 and is
//     what the evaluation harness uses.
//
//   - The distributed executor (package internal/proto) runs the actual
//     Hello/Ack message protocol of Figure 1 over the discrete-event
//     network simulator and produces an identical Execution value, which
//     tests cross-validate against the oracle.
//
// All optimizations are pure transformations over an Execution, so they
// apply uniformly to both executors.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
)

// AlphaConnectivity is 5π/6, the tight connectivity bound of the paper:
// CBTC(α) preserves connectivity iff α ≤ 5π/6 (Theorems 2.1 and 2.4).
const AlphaConnectivity = 5 * math.Pi / 6

// AlphaAsymmetric is 2π/3, the largest cone angle for which asymmetric
// edge removal is safe (Theorem 3.2).
const AlphaAsymmetric = 2 * math.Pi / 3

// Sentinel errors returned by the executors and transformations.
var (
	// ErrBadAlpha reports a cone angle outside (0, 2π].
	ErrBadAlpha = errors.New("core: alpha must be in (0, 2π]")
	// ErrAlphaTooLargeForAsym reports an attempt to apply asymmetric edge
	// removal with α > 2π/3, which Theorem 3.2 does not cover and which
	// can disconnect the network (Example 2.1).
	ErrAlphaTooLargeForAsym = errors.New("core: asymmetric edge removal requires alpha ≤ 2π/3")
	// ErrBadInput reports malformed positions or model parameters.
	ErrBadInput = errors.New("core: invalid input")
)

// Discovery records one neighbor found during the growing phase of
// CBTC(α), together with the information the algorithm retains about it.
type Discovery struct {
	// ID is the neighbor's node index.
	ID int
	// Dist is the distance to the neighbor. The oracle stores the true
	// distance; the distributed executor stores the estimate derived from
	// transmission and reception powers (§3.3).
	Dist float64
	// Dir is the bearing from the discovering node to the neighbor,
	// in [0, 2π) — the angle-of-arrival measurement.
	Dir float64
	// Power is the tag required by the shrink-back optimization: the
	// broadcast power of the round that first discovered this neighbor.
	// The oracle uses the exact minimum power p(Dist).
	Power float64
}

// NodeResult is the per-node outcome of the CBTC(α) growing phase.
type NodeResult struct {
	// Neighbors is N_α(u), sorted by (Power, Dist, ID).
	Neighbors []Discovery
	// GrowPower is p_{u,α}: the final broadcast power of the growing
	// phase. Boundary nodes hold the maximum power P. Reconfiguration
	// (§4) needs this value even after shrink-back trims Neighbors: it is
	// the power beacons must use to guarantee re-joins are observed.
	GrowPower float64
	// Boundary reports whether an α-gap remained at maximum power.
	Boundary bool
}

// Directions returns the bearing of every neighbor.
func (nr *NodeResult) Directions() []float64 {
	out := make([]float64, len(nr.Neighbors))
	for i, d := range nr.Neighbors {
		out[i] = d.Dir
	}
	return out
}

// Execution is the complete outcome of running CBTC(α) on a placement:
// everything the optimizations and the evaluation harness consume.
type Execution struct {
	// Alpha is the cone angle the algorithm ran with.
	Alpha float64
	// Model is the nominal power-law radio model in effect (the Nominal()
	// of the propagation model the execution ran under).
	Model radio.Model
	// Pos holds node positions; node i is Pos[i].
	Pos []geom.Point
	// Nodes holds the per-node results; Nodes[i] belongs to node i.
	Nodes []NodeResult
}

// Len returns the number of nodes.
func (e *Execution) Len() int { return len(e.Pos) }

// Nalpha returns the directed neighbor relation
// N_α = {(u,v) : v ∈ N_α(u)}, bulk-built into one packed arena: each
// node's (Power, Dist, ID)-ordered discovery list is re-sorted by id
// into its successor row.
func (e *Execution) Nalpha() *graph.Digraph {
	total := 0
	for _, nr := range e.Nodes {
		total += len(nr.Neighbors)
	}
	arena := make([]int32, 0, total)
	rows := make([][]int32, e.Len())
	for u, nr := range e.Nodes {
		// The arena has room for every row, so each one is filled in place.
		rows[u] = SuccessorRow(arena[len(arena):len(arena)], nr.Neighbors)
		arena = arena[:len(arena)+len(rows[u])]
	}
	return graph.NewDigraphFromRows(rows)
}

// SuccessorRow fills dst (a reused buffer, passed as dst[:0] or nil)
// with the neighbor ids of a discovery list in ascending order — the
// packed-digraph row for that node. Sessions use it to rebuild a
// repaired node's N_α row from its pruned neighbor set.
func SuccessorRow(dst []int32, nbrs []Discovery) []int32 {
	for _, nb := range nbrs {
		dst = append(dst, int32(nb.ID))
	}
	slices.Sort(dst)
	return dst
}

// Clone returns a deep copy of the execution. Transformations return
// fresh executions and never mutate their input.
func (e *Execution) Clone() *Execution {
	c := &Execution{
		Alpha: e.Alpha,
		Model: e.Model,
		Pos:   append([]geom.Point(nil), e.Pos...),
		Nodes: make([]NodeResult, len(e.Nodes)),
	}
	for i, nr := range e.Nodes {
		c.Nodes[i] = NodeResult{
			Neighbors: append([]Discovery(nil), nr.Neighbors...),
			GrowPower: nr.GrowPower,
			Boundary:  nr.Boundary,
		}
	}
	return c
}

func validateAlpha(alpha float64) error {
	if math.IsNaN(alpha) || alpha <= 0 || alpha > geom.TwoPi {
		return fmt.Errorf("%w: got %v", ErrBadAlpha, alpha)
	}
	return nil
}

func validateInput(pos []geom.Point, m radio.Propagation, alpha float64) error {
	if err := validateAlpha(alpha); err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("%w: nil propagation model", ErrBadInput)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return ValidatePositions(pos)
}

// ValidatePositions rejects a placement holding a non-finite coordinate:
// no distance predicate can match such a node, so every construction
// would silently isolate it. It is the one placement check every
// entry point that takes positions shares.
func ValidatePositions(pos []geom.Point) error {
	for i, p := range pos {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w: position %d is not finite: %v", ErrBadInput, i, p)
		}
	}
	return nil
}
