package cbtc

import (
	"context"
	"fmt"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/proto"
	"cbtc/internal/radio"
)

// Engine is a validated, reusable CBTC(α) executor. It is built once by
// New from functional options, is immutable afterwards, and is safe for
// concurrent use: any number of goroutines may call Run, Simulate,
// MaxPower, Baseline and RunBatch on the same Engine simultaneously —
// and any number of Sessions (NewSession) and Fleets (NewFleet) may
// evolve concurrently on top of it.
type Engine struct {
	cfg   Config
	model radio.Model // nominal power-law model (the hardware curve)
	// prop is the propagation authority every executor consults: the
	// nominal model itself, or a radio.LogDistance wrapping it when
	// WithShadowing installed per-link shadowing. prop.Nominal() == model
	// always holds.
	prop     radio.Propagation
	opts     core.Options
	schedule []float64 // non-nil: quantize discovery tags to these levels
	// scheduleFactor is the WithShrinkBackSchedule factor the schedule was
	// built from (0 = exact tags); it is part of the checkpoint config
	// fingerprint, since quantization changes the serialized fixed point.
	scheduleFactor float64
	workers        int // worker budget for Run/RunBatch/MaxPower/Session repair/Fleets; 0 = GOMAXPROCS

	// shadowing (WithShadowing); part of the checkpoint fingerprint.
	shadowed    bool
	shadowSigma float64
	shadowSeed  uint64
	// battery (WithBattery); part of the checkpoint fingerprint.
	battery      bool
	batteryCap   float64
	batteryDrain float64
}

// New builds an Engine from functional options, validating the combined
// configuration once. At minimum the maximum radius must be supplied
// (WithMaxRadius); every violation is reported as an error wrapping
// ErrBadConfig.
func New(options ...Option) (*Engine, error) {
	var s settings
	s.apply(options)
	return newEngine(s)
}

// apply folds options into the accumulated settings, resolving the
// AllOptimizations marker after every other option, so it composes with
// WithAlpha in either order.
func (s *settings) apply(options []Option) {
	for _, opt := range options {
		opt(s)
	}
	if s.allOpts {
		s.cfg = s.cfg.allOptimizations()
		s.allOpts = false
	}
}

// newEngine validates accumulated settings into an immutable Engine —
// the shared back half of New, Engine.derive and engineFromFingerprint.
func newEngine(s settings) (*Engine, error) {
	cfg, opts, err := s.cfg.resolve()
	if err != nil {
		return nil, err
	}
	exponent := s.radio.Exponent
	if exponent == 0 {
		exponent = radio.FreeSpaceExponent
	}
	m, err := radio.NewModel(exponent, s.radio.MaxRadius, 1)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if s.workers < 0 {
		return nil, fmt.Errorf("%w: negative worker count %d", ErrBadConfig, s.workers)
	}
	eng := &Engine{cfg: cfg, model: m, prop: m, opts: opts, workers: s.workers}
	if s.useShadow {
		ld, err := radio.NewLogDistance(m, s.shadowSigma, s.shadowSeed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		eng.prop = ld
		eng.shadowed = true
		eng.shadowSigma = s.shadowSigma
		eng.shadowSeed = s.shadowSeed
	}
	if s.useBattery {
		if math.IsNaN(s.batteryCap) || math.IsInf(s.batteryCap, 0) || s.batteryCap <= 0 {
			return nil, fmt.Errorf("%w: battery capacity %v must be positive and finite", ErrBadConfig, s.batteryCap)
		}
		if math.IsNaN(s.batteryDrain) || math.IsInf(s.batteryDrain, 0) || s.batteryDrain < 0 {
			return nil, fmt.Errorf("%w: battery drain %v must be non-negative and finite", ErrBadConfig, s.batteryDrain)
		}
		eng.battery = true
		eng.batteryCap = s.batteryCap
		eng.batteryDrain = s.batteryDrain
	}
	if s.scheduleFactor != 0 {
		inc, err := radio.Multiplicative(s.scheduleFactor)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		schedule, err := radio.Schedule(m.MaxPower()/1024, m.MaxPower(), inc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		eng.schedule = schedule
		eng.scheduleFactor = s.scheduleFactor
	}
	return eng, nil
}

// derive builds a new Engine layered on this one: the engine's resolved
// configuration is reopened as settings and the given options applied on
// top, revalidated as a whole. With no options the engine itself is
// returned. Fleets use it to give heterogeneous members their own option
// stacks without losing the base engine's defaults.
func (e *Engine) derive(options ...Option) (*Engine, error) {
	if len(options) == 0 {
		return e, nil
	}
	s := settings{
		cfg:            e.cfg,
		radio:          e.model,
		scheduleFactor: e.scheduleFactor,
		workers:        e.workers,
		useShadow:      e.shadowed,
		shadowSigma:    e.shadowSigma,
		shadowSeed:     e.shadowSeed,
		useBattery:     e.battery,
		batteryCap:     e.batteryCap,
		batteryDrain:   e.batteryDrain,
	}
	s.apply(options)
	return newEngine(s)
}

// Config returns the cone angle and optimization stack the Engine runs
// with. Alpha has its default filled in; PairwisePolicy reads as
// configured, so the default policy reads 0.
func (e *Engine) Config() Config { return e.cfg }

// RadioModel returns the nominal power-law radio model the Engine runs
// with — the hardware curve, before any per-link shadowing.
func (e *Engine) RadioModel() RadioModel { return e.model }

// Propagation returns the propagation authority the Engine consults for
// every link decision: the nominal model, or the shadowed log-distance
// model when WithShadowing is in effect.
func (e *Engine) Propagation() radio.Propagation { return e.prop }

// withWorkers returns a copy of the engine pinned to a different worker
// budget. Every executor is worker-count invariant, so the copy is
// interchangeable with the original except for scheduling; the
// experiment fan-outs use it to hand shard-pool inner budgets to nested
// runs.
func (e *Engine) withWorkers(n int) *Engine {
	c := *e
	c.workers = n
	return &c
}

// Alpha returns the cone angle the Engine runs with.
func (e *Engine) Alpha() float64 { return e.cfg.Alpha }

// Run executes CBTC(α) on the placement under the exact minimal-power
// semantics of the paper's analysis and applies the engine's
// optimization stack. The per-node cone tests are fanned across the
// engine's worker pool (WithWorkers; GOMAXPROCS by default) — the result
// is identical at every worker count. Cancelling ctx aborts the
// computation with ctx.Err().
func (e *Engine) Run(ctx context.Context, nodes []Point) (*Result, error) {
	return e.run(ctx, nodes, e.workers)
}

// run is Run with an explicit worker count; RunBatch pins it to 1 so
// batch-level parallelism is not multiplied by per-run parallelism.
// G_R comes out of the oracle's own gather, under the engine's
// propagation authority.
func (e *Engine) run(ctx context.Context, nodes []Point, workers int) (*Result, error) {
	exec, gr, err := core.RunWithMaxPowerGraph(ctx, nodes, e.prop, e.cfg.Alpha, workers)
	if err != nil {
		return nil, err
	}
	if e.schedule != nil {
		exec = core.QuantizeTags(exec, e.schedule)
	}
	topo, err := core.BuildTopology(exec, e.opts)
	if err != nil {
		return nil, err
	}
	return newResultWithGR(nodes, e.model, topo, gr), nil
}

// Simulate runs the distributed Hello/Ack protocol of the paper's
// Figure 1 on a discrete-event radio simulator and applies the engine's
// optimization stack to the outcome. Nodes act only on message powers
// and measured angles, exactly as the paper assumes. Cancelling ctx
// stops the event loop and returns ctx.Err().
func (e *Engine) Simulate(ctx context.Context, nodes []Point, sim SimOptions) (*Result, error) {
	exec, err := e.protoExec(ctx, nodes, sim)
	if err != nil {
		return nil, err
	}
	topo, err := core.BuildTopology(exec, e.opts)
	if err != nil {
		return nil, err
	}
	return newResultWithGR(nodes, e.model, topo, core.MaxPowerGraphParallel(nodes, e.prop, e.workers)), nil
}

// protoExec runs the distributed Figure 1 protocol on the discrete-event
// radio simulator and returns the finished growing-phase execution — the
// shared front half of Simulate and NewProtocolSession.
func (e *Engine) protoExec(ctx context.Context, nodes []Point, sim SimOptions) (*core.Execution, error) {
	if err := core.ValidatePositions(nodes); err != nil {
		return nil, err
	}
	simOpts := netsim.Options{
		Model:    e.prop,
		Latency:  sim.Latency,
		Jitter:   sim.Jitter,
		DropProb: sim.DropProb,
		DupProb:  sim.DupProb,
		AoANoise: sim.AoANoise,
		Seed:     sim.Seed,
	}
	if simOpts.Latency == 0 {
		simOpts.Latency = 1
	}
	pcfg := proto.Config{
		Alpha:       e.cfg.Alpha,
		P0:          sim.InitialPower,
		AsymRemoval: e.cfg.AsymmetricRemoval,
	}
	if sim.IncreaseFactor != 0 {
		inc, err := radio.Multiplicative(sim.IncreaseFactor)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		pcfg.Increase = inc
	}
	exec, _, err := proto.RunCBTCContext(ctx, nodes, simOpts, pcfg)
	if err != nil {
		return nil, err
	}
	return exec, nil
}

// MaxPower returns the Result of using no topology control at all:
// every node transmits at maximum power (the paper's baseline column in
// Table 1). The G_R radius queries are fanned across the engine's worker
// pool. The engine's optimization stack does not apply.
func (e *Engine) MaxPower(nodes []Point) (*Result, error) {
	if err := core.ValidatePositions(nodes); err != nil {
		return nil, err
	}
	m := e.model
	gr := core.MaxPowerGraphParallel(nodes, e.prop, e.workers)
	radii := make([]float64, len(nodes))
	powers := make([]float64, len(nodes))
	boundary := make([]bool, len(nodes))
	for i := range nodes {
		radii[i] = m.MaxRadius // the baseline transmits at R regardless
		powers[i] = m.MaxPower()
	}
	return &Result{
		G:         gr,
		GR:        gr,
		Pos:       append([]Point(nil), nodes...),
		Radii:     radii,
		Powers:    powers,
		Boundary:  boundary,
		AvgDegree: graph.AvgDegree(gr),
		AvgRadius: m.MaxRadius,
		model:     m,
	}, nil
}
