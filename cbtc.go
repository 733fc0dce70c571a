// Package cbtc is a library implementation of the cone-based distributed
// topology control algorithm (CBTC) analyzed in:
//
//	Li Li, Joseph Y. Halpern, Paramvir Bahl, Yi-Min Wang, Roger
//	Wattenhofer. "Analysis of a Cone-Based Distributed Topology Control
//	Algorithm for Wireless Multi-hop Networks." PODC 2001.
//
// CBTC(α) lets every node of a wireless multi-hop network find the
// minimum transmission power such that every cone of degree α around it
// contains a reachable neighbor, using only directional (angle-of-
// arrival) information — no GPS. The paper proves α = 5π/6 is a tight
// bound for the resulting symmetric graph G_α to preserve the
// connectivity of the maximum-power graph G_R, and adds three
// power-reducing optimizations that keep the guarantee.
//
// # The Engine
//
// The primary entry point is the Engine, built once from functional
// options and then immutable and safe for concurrent use:
//
//	eng, err := cbtc.New(
//		cbtc.WithMaxRadius(500),
//		cbtc.WithAlpha(cbtc.AlphaConnectivity),
//		cbtc.WithAllOptimizations(),
//	)
//	res, err := eng.Run(ctx, nodes)
//
// An Engine offers three executors with one output type:
//
//   - Engine.Run computes the topology under the exact minimal-power
//     semantics of the paper's analysis (fast, deterministic; what the
//     evaluation harness uses).
//   - Engine.Simulate runs the actual distributed Hello/Ack protocol of
//     the paper's Figure 1 over a discrete-event radio simulator,
//     supporting lossy channels and angle-of-arrival noise.
//   - Engine.RunBatch fans many independent placements across a worker
//     pool — the shape of every Monte-Carlo experiment in the paper's §5.
//
// All executor methods honor context cancellation. Each returns a Result
// carrying the final graph and the per-node power assignment, plus the
// metrics the paper's Table 1 reports.
//
// # Sessions: dynamic reconfiguration (§4)
//
// Engine.NewSession maintains a long-lived, evolving topology under the
// paper's §4 reconfiguration semantics: Join, Leave and Move events
// repair the topology incrementally — only the event node and the nodes
// whose beacon reaches the event site are recomputed — and Snapshot
// returns the live Result at any point. The maintained state always
// equals what a fresh Engine.Run over the current live placement would
// produce.
//
// # Legacy API
//
// The original one-shot functions Run, Simulate and MaxPowerTopology
// remain as thin wrappers that build a throwaway Engine from a Config;
// new code should construct an Engine once and reuse it.
package cbtc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
)

// Point is a node position in the plane.
type Point = geom.Point

// Graph is an undirected topology over node indices.
type Graph = graph.Graph

// Edge is an undirected edge between node indices.
type Edge = graph.Edge

// PairwisePolicy selects which redundant edges pairwise edge removal
// (§3.3) deletes; see the constants for the choices.
type PairwisePolicy = core.PairwisePolicy

// The pairwise edge removal policies of §3.3. Theorem 3.6 proves every
// subset of the redundant edges is safe to remove; the policies differ
// in the power/throughput trade-off.
const (
	// PairwiseLengthFiltered is the paper's practical rule: remove a
	// redundant edge only when it is longer than the longest
	// non-redundant edge at the detecting endpoint.
	PairwiseLengthFiltered = core.PairwiseLengthFiltered
	// PairwiseRemoveAll removes every redundant edge (Theorem 3.6).
	PairwiseRemoveAll = core.PairwiseRemoveAll
	// PairwiseEitherEndpoint removes a redundant edge that is longer than
	// the longest non-redundant edge at either endpoint.
	PairwiseEitherEndpoint = core.PairwiseEitherEndpoint
	// PairwiseBothEndpoints removes a redundant edge only when both
	// endpoints benefit.
	PairwiseBothEndpoints = core.PairwiseBothEndpoints
)

// The two cone angles the paper analyzes.
const (
	// AlphaConnectivity = 5π/6: the tight bound of Theorems 2.1/2.4.
	AlphaConnectivity = core.AlphaConnectivity
	// AlphaAsymmetric = 2π/3: the largest angle admitting asymmetric
	// edge removal (Theorem 3.2).
	AlphaAsymmetric = core.AlphaAsymmetric
)

// ErrBadConfig reports an invalid Config.
var ErrBadConfig = errors.New("cbtc: invalid config")

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Config selects the cone angle, the radio model, and the optimization
// stack. The zero value is not valid: MaxRadius must be positive.
//
// Config remains the configuration record behind the legacy one-shot
// functions and can seed an Engine through WithConfig; new code usually
// builds the Engine from individual options instead.
type Config struct {
	// Alpha is the cone angle in radians. Zero means AlphaConnectivity
	// (5π/6). Must be in (0, 2π]; connectivity is only guaranteed for
	// Alpha ≤ 5π/6.
	Alpha float64
	// MaxRadius is R: the distance reachable at maximum power. Required.
	MaxRadius float64
	// PathLossExponent is the power-law exponent n in p(d) = d^n.
	// Zero means 2 (free space).
	PathLossExponent float64

	// ShrinkBack enables optimization 1 (§3.1).
	ShrinkBack bool
	// AsymmetricRemoval enables optimization 2 (§3.2); requires
	// Alpha ≤ 2π/3.
	AsymmetricRemoval bool
	// PairwiseRemoval enables optimization 3 (§3.3); the policy is
	// selected by PairwisePolicy.
	PairwiseRemoval bool
	// PairwisePolicy selects the §3.3 removal rule; the zero value means
	// PairwiseLengthFiltered, the paper's practical rule.
	PairwisePolicy PairwisePolicy
	// RemoveAllRedundant switches PairwiseRemoval to delete every
	// redundant edge (the full Theorem 3.6 setting).
	//
	// Deprecated: set PairwisePolicy to PairwiseRemoveAll instead. The
	// field is still honored when PairwisePolicy is zero.
	RemoveAllRedundant bool
}

// resolvedPairwisePolicy returns the §3.3 policy in effect, merging the
// explicit PairwisePolicy field with the deprecated RemoveAllRedundant
// flag. Zero means the BuildTopology default (PairwiseLengthFiltered).
func (c Config) resolvedPairwisePolicy() PairwisePolicy {
	if c.PairwisePolicy != 0 {
		return c.PairwisePolicy
	}
	if c.RemoveAllRedundant {
		return PairwiseRemoveAll
	}
	return 0
}

// AllOptimizations returns cfg with every optimization applicable at its
// cone angle enabled — the paper's "with all opt" configuration. The
// pairwise policy is resolved the same way Run resolves it: an explicit
// PairwisePolicy wins, the deprecated RemoveAllRedundant flag maps to
// PairwiseRemoveAll, and the default is the paper's length-filtered
// rule.
func (c Config) AllOptimizations() Config {
	c.ShrinkBack = true
	c.PairwiseRemoval = true
	c.PairwisePolicy = c.resolvedPairwisePolicy()
	alpha := c.Alpha
	if alpha == 0 {
		alpha = AlphaConnectivity
	}
	c.AsymmetricRemoval = alpha <= AlphaAsymmetric+1e-9
	return c
}

func (c Config) resolve() (Config, radio.Model, core.Options, error) {
	if c.Alpha == 0 {
		c.Alpha = AlphaConnectivity
	}
	if c.PathLossExponent == 0 {
		c.PathLossExponent = radio.FreeSpaceExponent
	}
	if math.IsNaN(c.Alpha) || c.Alpha <= 0 || c.Alpha > 2*math.Pi {
		return c, radio.Model{}, core.Options{}, fmt.Errorf("%w: alpha %v not in (0, 2π]", ErrBadConfig, c.Alpha)
	}
	m, err := radio.NewModel(c.PathLossExponent, c.MaxRadius, 1)
	if err != nil {
		return c, radio.Model{}, core.Options{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	policy := c.resolvedPairwisePolicy()
	if policy < 0 || policy > PairwiseBothEndpoints {
		return c, radio.Model{}, core.Options{}, fmt.Errorf("%w: unknown pairwise policy %v", ErrBadConfig, policy)
	}
	opts := core.Options{
		ShrinkBack:        c.ShrinkBack,
		AsymmetricRemoval: c.AsymmetricRemoval,
		PairwiseRemoval:   c.PairwiseRemoval,
		PairwisePolicy:    policy,
	}
	if err := opts.Validate(c.Alpha); err != nil {
		return c, radio.Model{}, core.Options{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return c, m, opts, nil
}

// Run executes CBTC(α) on the placement under the exact minimal-power
// semantics of the paper's analysis and applies the configured
// optimization stack.
//
// Deprecated: build an Engine with New and call Engine.Run; it validates
// once, honors contexts, and is safe for concurrent reuse.
func Run(nodes []Point, cfg Config) (*Result, error) {
	eng, err := New(WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return eng.Run(context.Background(), nodes)
}

// SimOptions configures the distributed execution of Simulate.
type SimOptions struct {
	// Seed drives all simulator randomness. Same seed, same run.
	Seed uint64
	// Latency is the per-message delay; zero means 1 time unit.
	Latency float64
	// Jitter adds uniform random delay in [0, Jitter).
	Jitter float64
	// DropProb drops each delivery with this probability.
	DropProb float64
	// DupProb duplicates each delivery with this probability.
	DupProb float64
	// AoANoise is the bearing measurement noise (radians, std dev).
	AoANoise float64
	// InitialPower is p₀ of the growing phase; zero means MaxPower/1024.
	InitialPower float64
	// IncreaseFactor is the power growth multiplier per round; zero
	// means 2 (the paper's doubling).
	IncreaseFactor float64
}

// Simulate runs the distributed Hello/Ack protocol of the paper's
// Figure 1 on a discrete-event radio simulator and applies the
// configured optimization stack to the outcome.
//
// Deprecated: build an Engine with New and call Engine.Simulate.
func Simulate(nodes []Point, cfg Config, sim SimOptions) (*Result, error) {
	eng, err := New(WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return eng.Simulate(context.Background(), nodes, sim)
}

// MaxPowerTopology returns the Result of using no topology control at
// all: every node transmits at maximum power (the paper's baseline
// column in Table 1).
//
// Deprecated: build an Engine with New and call Engine.MaxPower.
func MaxPowerTopology(nodes []Point, cfg Config) (*Result, error) {
	eng, err := New(WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return eng.MaxPower(nodes)
}
