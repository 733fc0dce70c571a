package netsim

import (
	"testing"

	"cbtc/internal/workload"
)

// ping is a typed message: a small value struct, as the Figure 1
// runtime sends, carried in events and deliveries without boxing.
type ping struct {
	round int
	power float64
}

// chatter is a steady-state traffic generator: every timer tick it
// broadcasts a ping and re-arms itself, so the simulator processes an
// endless stream of timer and delivery events.
type chatter struct {
	round int
	power float64
}

func (c *chatter) Init(ctx *Context[ping]) { ctx.SetTimer(1, 1, c.power) }
func (c *chatter) Recv(ctx *Context[ping], d Delivery[ping]) {
	_ = d.Payload.round
}
func (c *chatter) Timer(ctx *Context[ping], kind int, v float64) {
	c.round++
	ctx.Broadcast(v, ping{round: c.round, power: v})
	ctx.SetTimer(1, 1, v)
}

// The allocation contract of the event loop: once the queue and the
// event slab have reached their steady-state footprint, the loop itself
// — pop, dispatch, timer re-arm, broadcast delivery fan-out — performs
// (near) zero allocations per event. Value-typed events replaced the
// per-event closure captures, the typed message replaced the boxed
// payload, dispatched slots are reused, and the callback Context is a
// single reused buffer.
func TestSteadyStateEventLoopAllocations(t *testing.T) {
	pos := workload.Grid(workload.Rand(11), 64, 3, 900, 900)
	m := testModel()
	opts := DefaultOptions(m)
	opts.Seed = 42
	s, err := New[ping](pos, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pos {
		s.SetProcess(i, &chatter{power: m.MaxPower() / 4})
	}
	// Warm up: grow the queue, the slab and the delivery scratch to steady
	// state.
	s.Run(50)
	start := s.Stats().Events

	horizon := s.Now()
	allocs := testing.AllocsPerRun(5, func() {
		horizon += 20
		s.Run(horizon)
	})
	events := s.Stats().Events - start
	if events < 1000 {
		t.Fatalf("workload too quiet: only %d events processed", events)
	}
	perEvent := allocs * 6 / float64(events) // 6 = AllocsPerRun rounds incl. warmup
	if perEvent > 0.02 {
		t.Fatalf("steady-state event loop allocates: %.4f allocs/event over %d events", perEvent, events)
	}
}
