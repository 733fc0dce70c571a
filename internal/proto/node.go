package proto

import (
	"math"
	"slices"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/netsim"
)

// Timer kinds.
const (
	timerRound = iota + 1 // growing-phase round deadline
	timerBeacon
	timerLeaveScan
)

// Node is the per-node protocol state machine: the CBTC(α) growing
// phase, the always-on Ack responder, asymmetric-removal notifications,
// and (optionally) the NDP with reconfiguration.
//
// Per-neighbor state lives in rows sorted by neighbor id rather than in
// maps: the discovered set, the Acked Hello senders, the removal notices
// received and the NDP's last-beacon record. Ascending iteration is then
// the deterministic order the protocol emits messages in, with no sort,
// and each row grows in place. Rows a configuration never uses — removal
// notices without asymmetric removal, NDP state before the first finish
// — are never allocated.
type Node struct {
	cfg Config

	// Growing phase.
	growing   bool
	power     float64 // current broadcast power
	round     int     // growing rounds executed (across regrows)
	finished  bool    // at least one growing phase completed
	boundary  bool
	growPower float64 // p_{u,α} of the most recent completed phase
	// discovered is N_α(u) as found so far, sorted by ID.
	discovered []core.Discovery
	// dirs is the direction set of discovered, normalized and ascending,
	// updated with every discovery, bearing update and departure. The
	// per-round gap test is the hottest per-node path of the growing
	// phase and reads it as is (HasGapSorted).
	dirs []float64

	// acked holds the nodes we Acked and the power needed to reach them,
	// sorted by id (these are exactly the reverse edges of E_α under
	// reliable channels: every Hello sender discovers us through our Ack).
	acked []ack

	// removed holds the senders of asymmetric-removal notices, ascending:
	// neighbors to exclude when the runtime constructs E⁻_α.
	removed []int

	// NDP state.
	reconf *core.Reconfigurator
	heard  []heard // last beacon per tracked neighbor, sorted by id

	// nbrScratch is the phase-end and per-beacon buffer of the sorted
	// neighbor list; idScratch holds one leave scan's departed ids; the
	// shrunk-power beacon rule shrinks into shrunk on runner's coverage
	// scratch. All are reused across calls, and runner is allocated by
	// the first shrunk-power beacon.
	nbrScratch []core.Discovery
	idScratch  []int
	shrunk     []core.Discovery
	runner     *core.NodeRunner

	// Events observed, for tests and reporting.
	Joins, Leaves, AngleChanges, Regrows int
}

// ack records one Acked Hello sender and the power needed to reach it.
type ack struct {
	id    int
	power float64
}

// heard is the NDP's record of one neighbor: when its last beacon (or
// Ack) arrived and the bearing it was last seen at.
type heard struct {
	id  int
	at  float64
	dir float64
}

// NewNode returns a protocol instance for one simulated node. The same
// config must be used for every node of a network.
func NewNode(cfg Config) *Node {
	return &Node{cfg: cfg}
}

// Init starts the growing phase.
func (n *Node) Init(ctx *netsim.Context[Message]) {
	n.startGrowing(ctx, n.cfg.P0)
}

func (n *Node) startGrowing(ctx *netsim.Context[Message], from float64) {
	n.growing = true
	n.power = math.Min(from, ctx.Model().MaxPower())
	n.broadcastHello(ctx)
}

func (n *Node) broadcastHello(ctx *netsim.Context[Message]) {
	n.round++
	ctx.Broadcast(n.power, Message{kind: msgHello, power: n.power})
	ctx.SetTimer(n.cfg.RoundDuration, timerRound, n.power)
}

// Recv dispatches on message kind.
func (n *Node) Recv(ctx *netsim.Context[Message], d netsim.Delivery[Message]) {
	switch d.Payload.kind {
	case msgHello:
		n.onHello(ctx, d)
	case msgAck:
		n.onAck(ctx, d)
	case msgRemove:
		if i, ok := slices.BinarySearch(n.removed, d.From); !ok {
			n.removed = slices.Insert(n.removed, i, d.From)
		}
	case msgBeacon:
		n.onBeacon(ctx, d)
	}
}

// onHello answers every Hello with an Ack transmitted with exactly the
// power needed to reach the sender, estimated from the transmission and
// reception powers (the paper's §2 assumption).
func (n *Node) onHello(ctx *netsim.Context[Message], d netsim.Delivery[Message]) {
	hello := d.Payload.power
	needed := ctx.Model().NeededPower(hello, d.RxPower)
	if i, ok := n.findAcked(d.From); ok {
		n.acked[i].power = needed
	} else {
		n.acked = slices.Insert(n.acked, i, ack{id: d.From, power: needed})
	}
	ctx.Unicast(d.From, needed, Message{kind: msgAck, power: hello})

	// A finished node under asymmetric removal immediately tells Hello
	// senders it never discovered to drop the asymmetric edge.
	if n.cfg.AsymRemoval && n.finished && !n.growing {
		if _, ok := n.findDiscovered(d.From); !ok {
			ctx.Unicast(d.From, needed, Message{kind: msgRemove})
		}
	}
}

// onAck records a discovery: the Ack's transmission power is what the
// neighbor needs to reach us; by channel symmetry it is also what we
// need to reach the neighbor. The discovery is tagged with the power of
// the Hello round that solicited it, which the Ack echoes, as the
// shrink-back optimization requires.
func (n *Node) onAck(ctx *netsim.Context[Message], d netsim.Delivery[Message]) {
	i, ok := n.findDiscovered(d.From)
	if ok {
		return // duplicate (channel duplication or a re-grow round)
	}
	disc := core.Discovery{
		ID:    d.From,
		Dist:  ctx.Model().EstimateDistance(d.TxPower, d.RxPower),
		Dir:   d.Bearing,
		Power: d.Payload.power,
	}
	n.discovered = slices.Insert(n.discovered, i, disc)
	n.dirs = geom.InsertSorted(n.dirs, disc.Dir)
	if n.reconf != nil {
		n.reconf.Join(disc)
		// Track liveness from now on, or the leave scanner would never
		// notice this neighbor failing before its first beacon.
		h := n.touch(d.From, ctx.Now())
		h.dir = d.Bearing
	}
}

// Timer dispatches on timer kind. Round timers carry the power of the
// round that armed them.
func (n *Node) Timer(ctx *netsim.Context[Message], kind int, v float64) {
	switch kind {
	case timerRound:
		n.onRoundEnd(ctx, v)
	case timerBeacon:
		n.onBeaconTimer(ctx)
	case timerLeaveScan:
		n.onLeaveScan(ctx)
	}
}

// onRoundEnd evaluates the gap-α test over everything discovered so far
// and either grows the power or terminates the phase (Figure 1's while
// loop condition).
func (n *Node) onRoundEnd(ctx *netsim.Context[Message], roundPower float64) {
	if !n.growing || roundPower != n.power {
		return // stale timer from an earlier round
	}
	maxPower := ctx.Model().MaxPower()
	if geom.HasGapSorted(n.directions(), n.cfg.Alpha) && n.power < maxPower {
		n.power = math.Min(n.cfg.Increase(n.power), maxPower)
		n.broadcastHello(ctx)
		return
	}
	n.finishGrowing(ctx)
}

func (n *Node) finishGrowing(ctx *netsim.Context[Message]) {
	n.growing = false
	firstFinish := !n.finished
	n.finished = true
	n.growPower = n.power
	n.boundary = geom.HasGapSorted(n.directions(), n.cfg.Alpha)

	if n.cfg.AsymRemoval {
		// Tell every Hello sender we did not discover to drop the
		// asymmetric edge (§3.2), in ascending id order: both rows are
		// id-sorted, so one merge walk finds the senders.
		j := 0
		for _, a := range n.acked {
			for j < len(n.discovered) && n.discovered[j].ID < a.id {
				j++
			}
			if j == len(n.discovered) || n.discovered[j].ID != a.id {
				ctx.Unicast(a.id, a.power, Message{kind: msgRemove})
			}
		}
	}

	if n.cfg.EnableNDP && firstFinish {
		// The Reconfigurator copies the list, so the phase-end neighbor
		// sort runs in a reused buffer.
		n.nbrScratch = n.AppendNeighbors(n.nbrScratch[:0])
		n.reconf = core.NewReconfigurator(n.cfg.Alpha, ctx.Model(), n.nbrScratch)
		now := ctx.Now()
		for _, d := range n.discovered {
			h := n.touch(d.ID, now)
			h.dir = d.Dir
		}
		// Desynchronize beacons across nodes deterministically.
		offset := n.cfg.BeaconPeriod * ctx.Rand().Float64()
		ctx.SetTimer(offset, timerBeacon, 0)
		ctx.SetTimer(n.cfg.BeaconPeriod+offset, timerLeaveScan, 0)
	}
}

// --- NDP ---

func (n *Node) onBeaconTimer(ctx *netsim.Context[Message]) {
	ctx.Broadcast(n.beaconPower(ctx), Message{kind: msgBeacon})
	ctx.SetTimer(n.cfg.BeaconPeriod, timerBeacon, 0)
}

// beaconPower applies the configured §4 rule.
func (n *Node) beaconPower(ctx *netsim.Context[Message]) float64 {
	switch n.cfg.Beacons {
	case BeaconShrunkPower:
		// The buggy rule: power for the shrunk-back neighbor set only.
		// The neighbor sort and the shrink run in the node's reused
		// buffers.
		if n.runner == nil {
			n.runner = new(core.NodeRunner)
		}
		n.nbrScratch = n.AppendNeighbors(n.nbrScratch[:0])
		n.shrunk = n.runner.ShrinkNeighborsInto(n.shrunk[:0], n.nbrScratch, n.cfg.Alpha)
		var p float64
		for _, d := range n.shrunk {
			p = math.Max(p, ctx.Model().PowerFor(d.Dist))
		}
		if p == 0 {
			p = n.cfg.P0
		}
		return p
	default:
		// Correct rule: reach every E_α neighbor (forward edges from the
		// current table, reverse edges from the Hello senders we Acked),
		// and the basic algorithm's power for boundary nodes.
		p := 0.0
		if n.reconf != nil {
			n.nbrScratch = n.reconf.AppendNeighbors(n.nbrScratch[:0])
			for _, d := range n.nbrScratch {
				p = math.Max(p, ctx.Model().PowerFor(d.Dist))
			}
		}
		for _, a := range n.acked {
			p = math.Max(p, a.power)
		}
		if n.boundary {
			p = math.Max(p, n.growPower)
		}
		if p == 0 {
			p = n.growPower
		}
		return p
	}
}

// onBeacon processes a neighbor's liveness beacon: join for unknown
// senders, aChange when the bearing moved.
func (n *Node) onBeacon(ctx *netsim.Context[Message], d netsim.Delivery[Message]) {
	if n.reconf == nil {
		return // still growing; beacons are handled once NDP starts
	}
	id := d.From
	h := n.touch(id, ctx.Now())

	dist := ctx.Model().EstimateDistance(d.TxPower, d.RxPower)
	needed := ctx.Model().NeededPower(d.TxPower, d.RxPower)

	if !n.reconf.Has(id) {
		n.Joins++
		h.dir = d.Bearing
		disc := core.Discovery{ID: id, Dist: dist, Dir: d.Bearing, Power: needed}
		if i, ok := n.findDiscovered(id); ok {
			n.redirect(i, disc)
		} else {
			n.discovered = slices.Insert(n.discovered, i, disc)
			n.dirs = geom.InsertSorted(n.dirs, disc.Dir)
		}
		n.reconf.Join(disc)
		return
	}
	if geom.AngularDist(h.dir, d.Bearing) > n.cfg.AngleThreshold {
		n.AngleChanges++
		h.dir = d.Bearing
		if i, ok := n.findDiscovered(id); ok {
			upd := n.discovered[i]
			upd.Dir = d.Bearing
			upd.Dist = dist
			n.redirect(i, upd)
		}
		if n.reconf.AngleChange(id, d.Bearing) == core.ActionRegrow {
			n.regrow(ctx)
		}
	}
}

// onLeaveScan detects failed neighbors: no beacon for LeaveTimeout.
// The departed are processed in ascending id order, the order of the
// heard row.
func (n *Node) onLeaveScan(ctx *netsim.Context[Message]) {
	now := ctx.Now()
	gone := n.idScratch[:0]
	kept := n.heard[:0]
	for _, h := range n.heard {
		if now-h.at > n.cfg.LeaveTimeout {
			gone = append(gone, h.id)
		} else {
			kept = append(kept, h)
		}
	}
	n.heard = kept
	n.idScratch = gone
	needRegrow := false
	for _, id := range gone {
		n.Leaves++
		if i, ok := n.findDiscovered(id); ok {
			n.dropDir(n.discovered[i].Dir)
			n.discovered = slices.Delete(n.discovered, i, i+1)
		}
		if n.reconf.Leave(id) == core.ActionRegrow {
			needRegrow = true
		}
	}
	if needRegrow {
		n.regrow(ctx)
	}
	ctx.SetTimer(n.cfg.BeaconPeriod, timerLeaveScan, 0)
}

// regrow re-enters the growing phase from p(rad⁻_{u,α}) as §4
// prescribes. The phase runs concurrently with beaconing.
func (n *Node) regrow(ctx *netsim.Context[Message]) {
	if n.growing {
		return // already regrowing; the running phase will cover it
	}
	n.Regrows++
	n.startGrowing(ctx, n.reconf.RegrowStartPower())
}

// --- Rows ---

func (n *Node) findDiscovered(id int) (int, bool) {
	return slices.BinarySearchFunc(n.discovered, id, func(d core.Discovery, id int) int { return d.ID - id })
}

func (n *Node) findAcked(id int) (int, bool) {
	return slices.BinarySearchFunc(n.acked, id, func(a ack, id int) int { return a.id - id })
}

// touch records a beacon (or Ack) from id at time at and returns its
// heard entry, inserting one with a zero bearing for a new neighbor. The
// pointer is valid until the next insertion into the row.
func (n *Node) touch(id int, at float64) *heard {
	i, ok := slices.BinarySearchFunc(n.heard, id, func(h heard, id int) int { return h.id - id })
	if !ok {
		n.heard = slices.Insert(n.heard, i, heard{id: id})
	}
	n.heard[i].at = at
	return &n.heard[i]
}

// redirect replaces discovered[i] with d, moving its direction in dirs.
func (n *Node) redirect(i int, d core.Discovery) {
	n.dropDir(n.discovered[i].Dir)
	n.discovered[i] = d
	n.dirs = geom.InsertSorted(n.dirs, d.Dir)
}

// dropDir removes one occurrence of dir from the sorted direction set.
func (n *Node) dropDir(dir float64) {
	i, _ := slices.BinarySearch(n.dirs, geom.Normalize(dir))
	n.dirs = slices.Delete(n.dirs, i, i+1)
}

// --- State inspection (used by the runtime and tests) ---

// directions returns the discovered direction set, normalized and
// ascending. The slice is the node's own and only valid until the next
// discovery or departure.
func (n *Node) directions() []float64 { return n.dirs }

// AppendNeighbors appends the discovered set to dst sorted by (Power,
// Dist, ID) — the same order core uses — and returns the extended slice.
// Only the appended part is sorted, so dst may be a reused buffer
// (passed as dst[:0]), nil, or an arena already holding other rows.
func (n *Node) AppendNeighbors(dst []core.Discovery) []core.Discovery {
	start := len(dst)
	dst = append(dst, n.discovered...)
	slices.SortFunc(dst[start:], func(a, b core.Discovery) int {
		switch {
		case a.Power != b.Power:
			if a.Power < b.Power {
				return -1
			}
			return 1
		case a.Dist != b.Dist:
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		default:
			return a.ID - b.ID
		}
	})
	return dst
}

// Neighbors returns the discovered set sorted by (Power, Dist, ID) as a
// fresh slice.
func (n *Node) Neighbors() []core.Discovery {
	return n.AppendNeighbors(make([]core.Discovery, 0, len(n.discovered)))
}

// TableNeighbors returns the current reconfiguration table (the dynamic
// neighbor set), or the discovered set when NDP is off.
func (n *Node) TableNeighbors() []core.Discovery {
	if n.reconf == nil {
		return n.Neighbors()
	}
	return n.reconf.Neighbors()
}

// Finished reports whether the growing phase has completed at least
// once.
func (n *Node) Finished() bool { return n.finished }

// Rounds returns the number of Hello broadcasts the node has performed
// across all growing phases — the message-complexity figure of the
// algorithm (at most ⌈log(P/p₀)⌉+1 per phase under a doubling schedule).
func (n *Node) Rounds() int { return n.round }

// Boundary reports whether the node finished with an α-gap.
func (n *Node) Boundary() bool { return n.boundary }

// GrowPower returns p_{u,α} of the most recent completed phase.
func (n *Node) GrowPower() float64 { return n.growPower }

// RemovedBy reports the asymmetric-removal notices received, in
// ascending id order.
func (n *Node) RemovedBy() []int {
	return append(make([]int, 0, len(n.removed)), n.removed...)
}
