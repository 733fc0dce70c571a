package netsim

import (
	"math/rand/v2"

	"cbtc/internal/radio"
)

// Context is the node-side API surface handed to Process callbacks.
// It implements the paper's communication primitives:
//
//	bcast(u, p, m)   -> Broadcast
//	send(u, p, m, v) -> Unicast
//	recv(u, m, v)    -> Process.Recv
//
// The simulator owns the Context and re-targets one buffer per event, so
// a Context is only valid during the callback it was passed to; processes
// must not retain it.
type Context[M any] struct {
	sim *Sim[M]
	id  int
}

// ID returns this node's ID.
func (c *Context[M]) ID() int { return c.id }

// Now returns the current simulation time.
func (c *Context[M]) Now() float64 { return c.sim.now }

// Model returns the nominal power-law radio model: the power curve
// node-side protocol logic (power schedules, distance estimation) runs
// on. Per-link propagation effects live in the simulator's delivery
// decisions, which is exactly the information asymmetry of a real
// deployment — nodes know their hardware's nominal curve, not the
// channel realization.
func (c *Context[M]) Model() radio.Model { return c.sim.opts.Model.Nominal() }

// Rand returns the simulation PRNG. Processes must draw randomness only
// from here to keep runs reproducible.
func (c *Context[M]) Rand() *rand.Rand { return c.sim.rng }

// Broadcast transmits payload with the given power; every live node
// within the power's range receives it (modulo channel loss). This is
// the paper's bcast primitive.
func (c *Context[M]) Broadcast(power float64, payload M) {
	c.sim.transmit(c.id, power, payload, -1)
}

// Unicast transmits payload with the given power to a single node,
// which receives it iff the power reaches its distance. This is the
// paper's send primitive.
func (c *Context[M]) Unicast(to int, power float64, payload M) {
	c.sim.checkID(to)
	c.sim.transmit(c.id, power, payload, to)
}

// SetTimer schedules a Timer callback on this node after delay time
// units, carrying the value v back to the callback (protocols tag round
// timers with the power they were armed at). Timers on crashed nodes
// never fire. The timer is a plain value event: arming one performs no
// allocation, which is what keeps the per-round/per-node timer traffic
// of large protocol runs off the allocator.
func (c *Context[M]) SetTimer(delay float64, kind int, v float64) {
	s := c.sim
	s.scheduleEvent(s.now+delay, event[M]{
		kind:  evTimer,
		node:  int32(c.id),
		tkind: int32(kind),
		fv:    v,
	})
}
