package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"time"

	"cbtc"
	"cbtc/internal/workload"
)

// wireEvent is fleetd's ingestion line format.
type wireEvent struct {
	Op  string  `json:"op"`
	Net int     `json:"net"`
	ID  int     `json:"id"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
}

// genMember mirrors one fleetd member's node table as fleetd's
// liveProjection sees it: positions and liveness by id, ids assigned to
// joins in arrival order (a join takes the next id of the member's id
// space), plus the live ids in a swap-remove list for uniform draws.
type genMember struct {
	pos   []cbtc.Point
	alive []bool
	live  []int // live ids, in a deterministic order
	slot  []int // index of each id in live, -1 once departed
}

func newGenMember(placement []cbtc.Point) genMember {
	m := genMember{}
	for _, p := range placement {
		m.admit(p)
	}
	return m
}

// admit appends a joining node and returns its id.
func (m *genMember) admit(p cbtc.Point) int {
	id := len(m.pos)
	m.pos = append(m.pos, p)
	m.alive = append(m.alive, true)
	m.slot = append(m.slot, len(m.live))
	m.live = append(m.live, id)
	return id
}

// depart marks a live id as gone.
func (m *genMember) depart(id int) {
	i := m.slot[id]
	last := m.live[len(m.live)-1]
	m.live[i], m.slot[last] = last, i
	m.live = m.live[:len(m.live)-1]
	m.slot[id] = -1
	m.alive[id] = false
}

// generator produces fleetd-ingest's event stream from a seed: drift
// moves of up to ±jitter per coordinate from tracked positions, plus
// joins and leaves at a 1/eventsPerPost rate each, spread uniformly
// over the members. It only ever targets live ids, so fleetd — whose
// fresh fleet it rebuilds from the same seed — rejects nothing.
type generator struct {
	rng     *rand.Rand
	side    float64
	jitter  float64
	members []genMember
}

// newGenerator rebuilds the fleet fleetd starts from `-m m -n n -kind
// uniform -seed seed`.
func newGenerator(seed uint64, m, n int) *generator {
	sc := workload.Fleet(m, n, "uniform")
	g := &generator{
		rng:    rand.New(rand.NewPCG(seed, workload.Mix(seed, 0x6c6f6164))),
		side:   sc.Side,
		jitter: sc.Jitter,
	}
	for _, p := range sc.Placements(seed) {
		g.members = append(g.members, newGenMember(p))
	}
	return g
}

// events draws the next n events.
func (g *generator) events(n int) []wireEvent {
	out := make([]wireEvent, 0, n)
	for range n {
		net := g.rng.IntN(len(g.members))
		m := &g.members[net]
		switch r := g.rng.IntN(n); {
		case r == 0:
			p := cbtc.Pt(g.rng.Float64()*g.side, g.rng.Float64()*g.side)
			m.admit(p)
			out = append(out, wireEvent{Op: "join", Net: net, X: p.X, Y: p.Y})
		case r == 1 && len(m.live) > 1:
			id := m.live[g.rng.IntN(len(m.live))]
			m.depart(id)
			out = append(out, wireEvent{Op: "leave", Net: net, ID: id})
		default:
			id := m.live[g.rng.IntN(len(m.live))]
			p := m.pos[id]
			p.X = clamp(p.X+(g.rng.Float64()*2-1)*g.jitter, g.side)
			p.Y = clamp(p.Y+(g.rng.Float64()*2-1)*g.jitter, g.side)
			m.pos[id] = p
			out = append(out, wireEvent{Op: "move", Net: net, ID: id, X: p.X, Y: p.Y})
		}
	}
	return out
}

func clamp(v, hi float64) float64 { return max(0, min(v, hi)) }

// body frames events as fleetd's newline-delimited JSON.
func body(evs []wireEvent) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, ev := range evs {
		_ = enc.Encode(ev) // a flat struct of numbers and strings always encodes
	}
	return b.Bytes()
}

// openLoop is one connection's fixed schedule: request k is due at
// start + due(k), whether or not earlier requests have finished. Each
// request is timed from its due time, so a stall also charges the wait
// it imposes on the requests queued behind it.
type openLoop struct {
	start  time.Time
	period time.Duration
	seed   uint64
}

// offset is request k's due time from the schedule start: k periods
// plus a seeded jitter of up to half a period. The jitter keeps the mean
// rate exactly 1/period while spreading the requests' phase against the
// daemon's tick, so a run samples every phase instead of the few a
// strictly periodic schedule would hit.
func (o openLoop) offset(k int) time.Duration {
	frac := float64(workload.Mix(o.seed, uint64(k))>>11) / (1 << 53)
	return time.Duration(k)*o.period + time.Duration(frac*float64(o.period/2))
}

func (o openLoop) due(k int) time.Time { return o.start.Add(o.offset(k)) }

// wait sleeps until request k is due.
func (o openLoop) wait(k int) {
	if d := time.Until(o.due(k)); d > 0 {
		time.Sleep(d)
	}
}

// sample is one timed request, in offsets from the schedule start.
type sample struct {
	due, sent, done time.Duration
}

// latency counts from the due time, not the send time, so it includes
// the generator's lateness.
func (s sample) latency() time.Duration { return s.done - s.due }

// sendRate is the rate the generator actually issued requests at: n
// requests over the span from the first due time to one period after
// the last send. A generator that sends every request on time achieves
// exactly the offered rate 1/period; one held back by slow responses on
// its connection falls below it.
func sendRate(samples []sample, period time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	span := samples[len(samples)-1].sent - samples[0].due + period
	return float64(len(samples)) / span.Seconds()
}

// ackRate is the completed requests per second from the first due time
// to the last completion.
func ackRate(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return float64(len(samples)) / (samples[len(samples)-1].done - samples[0].due).Seconds()
}
