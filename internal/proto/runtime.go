package proto

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
)

// Runtime couples a simulator with the protocol nodes installed on it,
// and converts protocol state into the core package's artifacts so the
// same analyses apply to distributed runs and oracle runs.
type Runtime struct {
	Sim   *netsim.Sim[Message]
	Nodes []*Node
	cfg   Config
}

// rowRoom is the initial capacity of each node's discovered, direction
// and Ack rows. At the paper's density a node discovers and Acks about
// ten neighbors, so the room holds the whole row for most nodes.
const rowRoom = 16

// Start builds a simulator over the placement, installs a protocol node
// everywhere, and returns the runtime without running it. Callers script
// scenarios via rt.Sim and then call Run/RunUntilQuiet.
func Start(pos []geom.Point, simOpts netsim.Options, cfg Config) (*Runtime, error) {
	sim, err := netsim.New[Message](pos, simOpts)
	if err != nil {
		return nil, err
	}
	// Node-side defaults derive from the nominal hardware curve: protocol
	// logic never sees per-link channel effects.
	cfg = cfg.withDefaults(simOpts.Model.Nominal(), simOpts.MaxDelay())
	if err := cfg.Validate(simOpts.Model.Nominal()); err != nil {
		return nil, err
	}
	// The initial nodes share one allocation, and so does each of their
	// growing-phase rows: every node starts with room for rowRoom
	// entries in a shared arena, capacity-capped so that a row that
	// outgrows its room moves to an allocation of its own. Nodes added
	// later by AddNode start empty.
	n := len(pos)
	slab := make([]Node, n)
	discovered := make([]core.Discovery, n*rowRoom)
	dirs := make([]float64, n*rowRoom)
	acked := make([]ack, n*rowRoom)
	nodes := make([]*Node, n)
	for i := range slab {
		lo, hi := i*rowRoom, (i+1)*rowRoom
		slab[i] = Node{
			cfg:        cfg,
			discovered: discovered[lo:lo:hi],
			dirs:       dirs[lo:lo:hi],
			acked:      acked[lo:lo:hi],
		}
		nodes[i] = &slab[i]
		sim.SetProcess(i, nodes[i])
	}
	return &Runtime{Sim: sim, Nodes: nodes, cfg: cfg}, nil
}

// RunCBTC executes the full growing phase on a static network and
// returns the resulting Execution. The configuration must have NDP
// disabled (otherwise beacons keep the event queue busy forever; script
// those scenarios through Start and Sim.Run instead).
func RunCBTC(pos []geom.Point, simOpts netsim.Options, cfg Config) (*core.Execution, *Runtime, error) {
	return RunCBTCContext(context.Background(), pos, simOpts, cfg)
}

// RunCBTCContext is RunCBTC with cooperative cancellation: the context
// is polled between simulator events, and an ended context aborts the
// run with ctx.Err().
func RunCBTCContext(ctx context.Context, pos []geom.Point, simOpts netsim.Options, cfg Config) (*core.Execution, *Runtime, error) {
	if cfg.EnableNDP {
		return nil, nil, fmt.Errorf("%w: RunCBTC requires NDP disabled", ErrBadConfig)
	}
	rt, err := Start(pos, simOpts, cfg)
	if err != nil {
		return nil, nil, err
	}
	if ctx.Done() != nil {
		rt.Sim.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	// Generous convergence budget: rounds × duration plus message slack.
	limit := 10000 * (cfg.withDefaults(simOpts.Model.Nominal(), simOpts.MaxDelay()).RoundDuration + simOpts.MaxDelay())
	if err := rt.Sim.RunUntilQuiet(limit); err != nil {
		if errors.Is(err, netsim.ErrInterrupted) && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, fmt.Errorf("proto: growing phase did not converge: %w", err)
	}
	for i, n := range rt.Nodes {
		if !n.Finished() {
			return nil, nil, fmt.Errorf("proto: node %d never finished its growing phase", i)
		}
	}
	// The returned Runtime outlives this call (callers script further
	// scenarios through rt.Sim); do not leave the ctx-bound interrupt
	// armed on it.
	rt.Sim.SetInterrupt(nil)
	return rt.Execution(), rt, nil
}

// AddNode introduces a brand-new protocol node at the given position
// while the simulation is running, as §4's join scenario describes. The
// newcomer runs its own growing phase (discovering whoever Acks) and
// participates in the NDP like everyone else. It returns the new ID.
func (rt *Runtime) AddNode(at geom.Point) int {
	id := rt.Sim.AddNode(at)
	n := NewNode(rt.cfg)
	rt.Nodes = append(rt.Nodes, n)
	rt.Sim.SetProcess(id, n)
	return id
}

// Execution snapshots the protocol state as a core.Execution, so every
// optimization and metric of the core package applies unchanged. The
// neighbor lists are packed into one arena, each capacity-capped so an
// append to one never reaches the next.
func (rt *Runtime) Execution() *core.Execution {
	e := &core.Execution{
		Alpha:         rt.cfg.Alpha,
		Model:         rt.Sim.Model(),
		LinkDependent: !rt.Sim.Propagation().DistancePure(),
		Pos:           make([]geom.Point, rt.Sim.Len()),
		Nodes:         make([]core.NodeResult, len(rt.Nodes)),
	}
	total := 0
	for _, n := range rt.Nodes {
		total += len(n.discovered)
	}
	arena := make([]core.Discovery, 0, total)
	for i, n := range rt.Nodes {
		e.Pos[i] = rt.Sim.Position(i)
		start := len(arena)
		arena = n.AppendNeighbors(arena)
		e.Nodes[i] = core.NodeResult{
			Neighbors: arena[start:len(arena):len(arena)],
			GrowPower: n.GrowPower(),
			Boundary:  n.Boundary(),
		}
	}
	return e
}

// AsymDigraph returns the neighbor relation with the §3.2 removal
// notices applied: N_α(u) minus the senders that told u to drop them.
// Under reliable channels its symmetric closure equals the mutual
// subgraph of N_α.
func (rt *Runtime) AsymDigraph() *graph.Digraph {
	d := graph.NewDigraph(len(rt.Nodes))
	for u, n := range rt.Nodes {
		for _, nb := range n.discovered {
			if _, gone := slices.BinarySearch(n.removed, nb.ID); !gone {
				d.AddArc(u, nb.ID)
			}
		}
	}
	return d
}

// TableGraph returns the symmetric closure of the current dynamic
// neighbor tables — the live topology during an NDP scenario. Crashed
// nodes contribute no arcs.
func (rt *Runtime) TableGraph() *graph.Graph {
	d := graph.NewDigraph(len(rt.Nodes))
	for u, n := range rt.Nodes {
		if rt.Sim.Crashed(u) {
			continue
		}
		for _, nb := range n.TableNeighbors() {
			if nb.ID < rt.Sim.Len() && !rt.Sim.Crashed(nb.ID) {
				d.AddArc(u, nb.ID)
			}
		}
	}
	return d.SymmetricClosure()
}
