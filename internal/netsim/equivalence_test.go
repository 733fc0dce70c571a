package netsim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// flooder exercises every delivery path: it broadcasts on Init, floods
// received messages with a TTL, and unicasts an ack back to the sender.
type flooder struct {
	model radio.Model
	log   *[]string
}

type floodMsg struct {
	ttl   int
	ack   bool
	token int
}

func (f *flooder) Init(ctx *Context[floodMsg]) {
	f.record(ctx, "init", Delivery[floodMsg]{})
	ctx.Broadcast(f.model.MaxPower()/4, floodMsg{ttl: 1, token: ctx.ID()})
	ctx.SetTimer(3, 1, 0)
}

func (f *flooder) Recv(ctx *Context[floodMsg], d Delivery[floodMsg]) {
	f.record(ctx, "recv", d)
	m := d.Payload
	if m.ack {
		return
	}
	if m.ttl > 0 {
		ctx.Broadcast(f.model.MaxPower()/2, floodMsg{ttl: m.ttl - 1, token: m.token})
	}
	ctx.Unicast(d.From, f.model.MaxPower(), floodMsg{ack: true, token: m.token})
}

func (f *flooder) Timer(ctx *Context[floodMsg], kind int, v float64) {
	f.record(ctx, "timer", Delivery[floodMsg]{})
	ctx.Broadcast(f.model.MaxPower(), floodMsg{token: -ctx.ID()})
}

func (f *flooder) record(ctx *Context[floodMsg], what string, d Delivery[floodMsg]) {
	*f.log = append(*f.log, fmt.Sprintf("t=%.9f id=%d %s from=%d tx=%.9f rx=%.9g bearing=%.9f payload=%v",
		ctx.Now(), ctx.ID(), what, d.From, d.TxPower, d.RxPower, d.Bearing, d.Payload))
}

// runFlood runs the flooding workload over the placement with scripted
// crashes, moves and a mid-run join, and returns the full event log,
// stats, and per-node energies.
func runFlood(t *testing.T, pos []geom.Point, opts Options) ([]string, Stats, []float64) {
	t.Helper()
	sim, err := New[floodMsg](pos, opts)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	nominal := opts.Model.Nominal()
	for i := range pos {
		sim.SetProcess(i, &flooder{model: nominal, log: &log})
	}
	sim.ScheduleAt(2, func() { sim.Crash(1) })
	sim.ScheduleAt(4, func() { sim.MoveNode(0, geom.Pt(pos[0].X+nominal.MaxRadius/2, pos[0].Y)) })
	sim.ScheduleAt(5, func() {
		id := sim.AddNode(geom.Pt(pos[2].X+1, pos[2].Y+1))
		sim.SetProcess(id, &flooder{model: nominal, log: &log})
	})
	sim.Run(60)
	energies := make([]float64, sim.Len())
	for i := range energies {
		energies[i] = sim.Energy(i)
	}
	return log, sim.Stats(), energies
}

// TestGridMatchesNaiveDelivery is the netsim half of the naive-vs-grid
// equivalence guarantee: seeded runs over the spatial index produce
// byte-identical histories — every delivery, every PRNG draw, every
// counter — to the naive full-scan delivery path, across densities and
// under channel noise.
func TestGridMatchesNaiveDelivery(t *testing.T) {
	m := radio.Default(workload.PaperRadius)
	noisy := Options{
		Model:    m,
		Latency:  1,
		Jitter:   0.5,
		DropProb: 0.2,
		DupProb:  0.15,
		AoANoise: 0.05,
	}
	clean := DefaultOptions(m)
	for _, tc := range []struct {
		name string
		n    int
		w    float64
		opts Options
	}{
		{"sparse-clean", 20, 4000, clean},
		{"paper-density-clean", 30, 1500, clean},
		{"dense-noisy", 25, 600, noisy},
		{"paper-density-noisy", 30, 1500, noisy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 2; seed++ {
				pos := workload.Uniform(rand.New(rand.NewPCG(seed, 99)), tc.n, tc.w, tc.w)
				naive := tc.opts
				naive.Seed = seed
				naive.NaiveDelivery = true
				grid := naive
				grid.NaiveDelivery = false

				nLog, nStats, nEnergy := runFlood(t, pos, naive)
				gLog, gStats, gEnergy := runFlood(t, pos, grid)

				if nStats != gStats {
					t.Fatalf("seed %d: stats diverge: naive %+v, grid %+v", seed, nStats, gStats)
				}
				if len(nLog) != len(gLog) {
					t.Fatalf("seed %d: log lengths diverge: naive %d, grid %d", seed, len(nLog), len(gLog))
				}
				for i := range nLog {
					if nLog[i] != gLog[i] {
						t.Fatalf("seed %d: log entry %d diverges:\nnaive: %s\ngrid:  %s", seed, i, nLog[i], gLog[i])
					}
				}
				for i := range nEnergy {
					if nEnergy[i] != gEnergy[i] {
						t.Fatalf("seed %d: node %d energy diverges: naive %v, grid %v", seed, i, nEnergy[i], gEnergy[i])
					}
				}
			}
		})
	}
}

// TestUnicastDirectDelivery verifies the unicast fast path: no scan, one
// reachability check, identical channel semantics.
func TestUnicastDirectDelivery(t *testing.T) {
	m := radio.Default(10)
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(50, 0)}
	for _, naive := range []bool{false, true} {
		opts := DefaultOptions(m)
		opts.NaiveDelivery = naive
		sim, err := New[any](pos, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, 3)
		for i := range pos {
			i := i
			sim.SetProcess(i, &recorder{onRecv: func(ctx *Context[any], d Delivery[any]) { got[i]++ }})
		}
		sim.ScheduleAt(1, func() {
			c := &Context[any]{sim: sim, id: 0}
			c.Unicast(1, m.MaxPower(), "hi")   // in range: delivered
			c.Unicast(2, m.MaxPower(), "far")  // out of range: dropped silently
			c.Unicast(0, m.MaxPower(), "self") // self: never delivered
		})
		sim.Run(10)
		if got[0] != 0 || got[1] != 1 || got[2] != 0 {
			t.Fatalf("naive=%v: deliveries = %v, want [0 1 0]", naive, got)
		}
		if s := sim.Stats(); s.Sent != 3 || s.Delivered != 1 {
			t.Fatalf("naive=%v: stats = %+v", naive, s)
		}
	}
}
