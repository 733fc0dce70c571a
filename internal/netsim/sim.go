package netsim

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
)

// Process is the behavior installed on each node, over the message type
// M its network exchanges. The simulator calls its methods
// sequentially; a process never runs concurrently with itself or any
// other process. The Context passed to a callback is owned by the
// simulator and only valid for the duration of that callback —
// processes must not retain it.
type Process[M any] interface {
	// Init runs once when the simulation starts (or when the node is
	// added to a running simulation).
	Init(ctx *Context[M])
	// Recv handles a delivered message.
	Recv(ctx *Context[M], d Delivery[M])
	// Timer handles an expired timer set through Context.SetTimer; v is
	// the value passed at arming time.
	Timer(ctx *Context[M], kind int, v float64)
}

// Delivery is a received message together with the physical-layer
// measurements the paper assumes are available (§2): the transmission
// power (carried in the message), the reception power, and the measured
// angle of arrival. The message is held by value as the simulator's
// message type M: a protocol that instantiates the simulator with a
// small value struct (as the Figure 1 runtime does) sends and receives
// without boxing anything.
type Delivery[M any] struct {
	// From is the sender's node ID.
	From int
	// TxPower is the power the message was transmitted with.
	TxPower float64
	// RxPower is the power the message arrived with after attenuation.
	RxPower float64
	// Bearing is the measured angle of arrival: the direction from the
	// receiver toward the sender, plus configured measurement noise.
	Bearing float64
	// Payload is the message body.
	Payload M
}

// Stats counts simulator activity, for tests and reporting.
type Stats struct {
	Sent       int // transmit operations (broadcast or unicast)
	Delivered  int // successful deliveries
	Dropped    int // deliveries lost to the unreliable channel
	Duplicated int // extra deliveries injected by duplication
	Events     int // total events processed
}

// Sim is a deterministic discrete-event simulator over the message
// type M. Events live in a slab of value-typed bodies that is reused
// across the whole run; the priority queue orders small (at, seq, slot)
// entries pointing into it, so neither scheduling nor dispatch
// allocates once the slab has grown to the run's steady state.
type Sim[M any] struct {
	opts  Options
	rng   *rand.Rand
	now   float64
	seq   uint64
	queue eventQueue
	slab  []event[M] // event bodies, indexed by queue entry slot
	free  []int32    // slab slots whose events have been dispatched

	pos     []geom.Point
	procs   []Process[M]
	crashed []bool

	grid    *spatial.Grid // cell = MaxLinkRadius; nil only in NaiveDelivery mode
	scratch []int         // reusable Within result buffer
	cbuf    Context[M]    // reusable callback context; see dispatch

	stats     Stats
	energyTx  []float64
	interrupt func() bool
}

// ErrInterrupted reports that an installed interrupt callback stopped
// the event loop before the queue drained.
var ErrInterrupted = errors.New("netsim: interrupted")

// SetInterrupt installs a callback polled before each event; when it
// returns true, Run stops early and RunUntilQuiet fails with an error
// wrapping ErrInterrupted. It is how context cancellation reaches the
// event loop: the driver installs func() bool { return ctx.Err() != nil }.
func (s *Sim[M]) SetInterrupt(fn func() bool) { s.interrupt = fn }

func (s *Sim[M]) interrupted() bool { return s.interrupt != nil && s.interrupt() }

// evKind discriminates the value-typed event union. Events used to carry
// a closure (`fn func()`), which allocated one capture block per
// scheduled event — the dominant allocation of large simulations. The
// protocol traffic (timers, deliveries, inits) is now described by plain
// fields dispatched in the loop; only explicitly scripted callbacks
// (ScheduleAt) still carry a closure.
type evKind uint8

const (
	// evFunc runs a scripted callback (ScheduleAt).
	evFunc evKind = iota
	// evInit delivers Process.Init to node.
	evInit
	// evTimer delivers Process.Timer(tkind, fv) to node.
	evTimer
	// evDeliver delivers del to node via Process.Recv.
	evDeliver
)

// event is the body of one queued event, stored by value in the
// simulator's slab.
type event[M any] struct {
	kind  evKind
	node  int32       // target node for evInit/evTimer/evDeliver
	tkind int32       // timer kind for evTimer
	fv    float64     // timer value for evTimer
	del   Delivery[M] // payload for evDeliver
	fn    func()      // callback for evFunc
}

// entry is one queued event: its (at, seq) position in the total event
// order and the slab slot holding its body. At 24 bytes it is what the
// heap moves, instead of the event bodies themselves.
type entry struct {
	at   float64
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of entries over (at, seq). seq is
// unique, so the order is total and every correct heap pops the same
// sequence; sifting moves a hole instead of swapping pairs.
type eventQueue []entry

func (q *eventQueue) push(e entry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() entry {
	h := *q
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	*q = h
	n := len(h)
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// New builds a simulator over the given placement. Processes are
// installed with SetProcess before Run.
func New[M any](pos []geom.Point, opts Options) (*Sim[M], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// Pre-size the queue and the slab for the steady state (every node
	// with an outstanding timer plus in-flight deliveries) so the growth
	// reallocations happen once, up front.
	capacity := max(64, 4*len(pos))
	s := &Sim[M]{
		opts:     opts,
		rng:      rand.New(rand.NewPCG(opts.Seed, 0x6a09e667f3bcc909)),
		pos:      append([]geom.Point(nil), pos...),
		procs:    make([]Process[M], len(pos)),
		crashed:  make([]bool, len(pos)),
		energyTx: make([]float64, len(pos)),
		queue:    make(eventQueue, 0, capacity),
		slab:     make([]event[M], 0, capacity),
	}
	s.cbuf.sim = s
	if !opts.NaiveDelivery {
		s.grid = spatial.New(s.pos, opts.Model.MaxLinkRadius())
	}
	return s, nil
}

// Grid returns the delivery index: a spatial.Grid with cell size
// Model.MaxLinkRadius over every node's current position (crashed nodes
// included), maintained across MoveNode and AddNode. It is nil under
// NaiveDelivery. A caller that needs a grid over the final placement
// once the simulation is over (G_R, a session's index) can adopt it
// instead of building its own.
func (s *Sim[M]) Grid() *spatial.Grid { return s.grid }

// Energy returns the cumulative transmission energy node id has spent:
// the sum of the powers of its transmit operations (each transmission
// lasts one unit). The §5 discussion compares the energy CBTC(α)
// expends during execution across cone angles.
func (s *Sim[M]) Energy(id int) float64 {
	s.checkID(id)
	return s.energyTx[id]
}

// TotalEnergy returns the network-wide transmission energy.
func (s *Sim[M]) TotalEnergy() float64 {
	var sum float64
	for _, e := range s.energyTx {
		sum += e
	}
	return sum
}

// SetProcess installs the behavior of node id. It must be called before
// the node participates; Init is scheduled at the current time.
func (s *Sim[M]) SetProcess(id int, p Process[M]) {
	s.checkID(id)
	s.procs[id] = p
	s.scheduleEvent(s.now, event[M]{kind: evInit, node: int32(id)})
}

// Len returns the number of nodes.
func (s *Sim[M]) Len() int { return len(s.pos) }

// Now returns the current simulation time.
func (s *Sim[M]) Now() float64 { return s.now }

// Position returns node id's current position.
func (s *Sim[M]) Position(id int) geom.Point {
	s.checkID(id)
	return s.pos[id]
}

// Model returns the nominal power-law radio model in effect. The full
// propagation model (with any per-link effects) is Propagation.
func (s *Sim[M]) Model() radio.Model { return s.opts.Model.Nominal() }

// Propagation returns the propagation model in effect.
func (s *Sim[M]) Propagation() radio.Propagation { return s.opts.Model }

// Stats returns activity counters.
func (s *Sim[M]) Stats() Stats { return s.stats }

// Crash marks node id as crash-failed: it stops sending, receiving and
// processing timers, permanently.
func (s *Sim[M]) Crash(id int) {
	s.checkID(id)
	s.crashed[id] = true
}

// Crashed reports whether node id has crash-failed.
func (s *Sim[M]) Crashed(id int) bool {
	s.checkID(id)
	return s.crashed[id]
}

// MoveNode relocates node id immediately. In-flight messages are not
// re-routed: delivery sets are computed at transmission time, modeling
// signals already in the air.
func (s *Sim[M]) MoveNode(id int, to geom.Point) {
	s.checkID(id)
	s.pos[id] = to
	if s.grid != nil {
		s.grid.Move(id, to)
	}
}

// AddNode introduces a new node at the given position while the
// simulation is running (§4: "new nodes may be added to the network").
// It returns the new node's ID; install its behavior with SetProcess.
// Until a process is installed the node neither sends nor receives.
func (s *Sim[M]) AddNode(at geom.Point) int {
	id := len(s.pos)
	s.pos = append(s.pos, at)
	s.procs = append(s.procs, nil)
	s.crashed = append(s.crashed, false)
	s.energyTx = append(s.energyTx, 0)
	if s.grid != nil {
		s.grid.Add(id, at)
	}
	return id
}

// ScheduleAt runs fn at the given absolute time. Tests and scenario
// drivers use it to script crashes, moves, and assertions.
func (s *Sim[M]) ScheduleAt(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.schedule(t, fn)
}

// Run processes events until the queue empties or the simulation clock
// passes `until`. It returns the number of events processed.
func (s *Sim[M]) Run(until float64) int {
	processed := 0
	for len(s.queue) > 0 {
		if s.queue[0].at > until || s.interrupted() {
			break
		}
		s.step()
		processed++
	}
	if s.now < until {
		s.now = until
	}
	return processed
}

// RunUntilQuiet processes events until the queue drains, failing if the
// clock passes maxTime first (a protocol that never converges).
func (s *Sim[M]) RunUntilQuiet(maxTime float64) error {
	for len(s.queue) > 0 {
		if s.interrupted() {
			return fmt.Errorf("%w at time %v with %d events pending", ErrInterrupted, s.now, len(s.queue))
		}
		if s.queue[0].at > maxTime {
			return fmt.Errorf("netsim: still %d events pending at time %v (limit %v)",
				len(s.queue), s.queue[0].at, maxTime)
		}
		s.step()
	}
	return nil
}

// step pops the earliest event, advances the clock to it and dispatches
// it. The body is copied out of the slab and its slot released first,
// so the callback can schedule into the slot (and grow the slab) freely.
func (s *Sim[M]) step() {
	e, ev := s.next()
	s.now = e.at
	s.dispatch(&ev)
	s.stats.Events++
}

// next removes the earliest queued event and returns its queue entry and
// body.
func (s *Sim[M]) next() (entry, event[M]) {
	e := s.queue.pop()
	ev := s.slab[e.slot]
	s.slab[e.slot] = event[M]{} // release the closure/payload references
	s.free = append(s.free, e.slot)
	return e, ev
}

// dispatch executes one popped event. The liveness checks happen here —
// at fire time, not at schedule time — preserving the semantics of the
// closure-based events: a node that crashed or was cleared after the
// event was scheduled silently absorbs it.
//
// The Context handed to callbacks is a single per-Sim value re-targeted
// for each dispatch. The event loop is strictly sequential and processes
// never retain the Context past their callback (the Process contract),
// so one buffer serves every event with zero allocations.
func (s *Sim[M]) dispatch(ev *event[M]) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evInit:
		id := int(ev.node)
		if !s.crashed[id] && s.procs[id] != nil {
			s.cbuf.id = id
			s.procs[id].Init(&s.cbuf)
		}
	case evTimer:
		id := int(ev.node)
		if !s.crashed[id] && s.procs[id] != nil {
			s.cbuf.id = id
			s.procs[id].Timer(&s.cbuf, int(ev.tkind), ev.fv)
		}
	case evDeliver:
		to := int(ev.node)
		if s.crashed[to] || s.procs[to] == nil {
			return
		}
		s.stats.Delivered++
		s.cbuf.id = to
		s.procs[to].Recv(&s.cbuf, ev.del)
	}
}

func (s *Sim[M]) schedule(at float64, fn func()) {
	s.scheduleEvent(at, event[M]{kind: evFunc, fn: fn})
}

// scheduleEvent queues ev at time at, behind every event already queued
// for the same time, storing the body in a released slab slot when one
// is free.
func (s *Sim[M]) scheduleEvent(at float64, ev event[M]) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[slot] = ev
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, ev)
	}
	s.queue.push(entry{at: at, seq: s.seq, slot: slot})
	s.seq++
}

func (s *Sim[M]) checkID(id int) {
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("netsim: node %d out of range [0, %d)", id, len(s.pos)))
	}
}

// transmit implements both broadcast and unicast, applying the
// unreliable-channel model per receiver. Unicast (only ≥ 0) delivers
// directly to the target after a single reachability check. Broadcast
// queries the spatial index for the nodes within the transmission range
// instead of scanning the whole placement; because the index returns
// candidates in ascending id order — the order the naive scan visits
// them — the per-receiver drop/dup/jitter PRNG draws happen in exactly
// the same sequence and seeded histories are byte-identical.
func (s *Sim[M]) transmit(from int, txPower float64, payload M, only int) {
	if s.crashed[from] {
		return
	}
	s.stats.Sent++
	s.energyTx[from] += txPower
	if s.grid == nil {
		// NaiveDelivery: the pre-index reference implementation, including
		// its linear unicast scan.
		for to := range s.pos {
			if to == from || s.crashed[to] || s.procs[to] == nil {
				continue
			}
			if only >= 0 && to != only {
				continue
			}
			s.maybeDeliver(from, to, txPower, payload)
		}
		return
	}
	if only >= 0 {
		if only != from && only < len(s.pos) && !s.crashed[only] && s.procs[only] != nil {
			s.maybeDeliver(from, only, txPower, payload)
		}
		return
	}
	// LinkReaches carries a 1e-12-scale relative power tolerance, so the
	// model's conservative RangeBound is widened by QuerySlack and the
	// exact per-link predicate re-applied in maybeDeliver — the candidate
	// set is a tight superset.
	reach := s.opts.Model.RangeBound(txPower) * (1 + spatial.QuerySlack)
	s.scratch = s.grid.AppendWithin(s.scratch[:0], s.pos[from], reach)
	for _, to := range s.scratch {
		if to == from || s.crashed[to] || s.procs[to] == nil {
			continue
		}
		s.maybeDeliver(from, to, txPower, payload)
	}
}

// maybeDeliver applies the physical and unreliable-channel model for one
// receiver: the exact reachability predicate, then the drop and
// duplication draws. The PRNG is only consulted for receivers that pass
// the reachability check, preserving the naive scan's draw sequence.
func (s *Sim[M]) maybeDeliver(from, to int, txPower float64, payload M) {
	d := s.pos[from].Dist(s.pos[to])
	if !s.opts.Model.LinkReaches(from, to, txPower, d) {
		return
	}
	if s.opts.DropProb > 0 && s.rng.Float64() < s.opts.DropProb {
		s.stats.Dropped++
		return
	}
	s.deliverOnce(from, to, txPower, d, payload)
	if s.opts.DupProb > 0 && s.rng.Float64() < s.opts.DupProb {
		s.stats.Duplicated++
		s.deliverOnce(from, to, txPower, d, payload)
	}
}

func (s *Sim[M]) deliverOnce(from, to int, txPower, dist float64, payload M) {
	delay := s.opts.Latency
	if s.opts.Jitter > 0 {
		delay += s.rng.Float64() * s.opts.Jitter
	}
	bearing := s.pos[to].Bearing(s.pos[from])
	if s.opts.AoANoise > 0 {
		bearing = geom.Normalize(bearing + s.rng.NormFloat64()*s.opts.AoANoise)
	}
	s.scheduleEvent(s.now+delay, event[M]{
		kind: evDeliver,
		node: int32(to),
		del: Delivery[M]{
			From:    from,
			TxPower: txPower,
			RxPower: s.opts.Model.LinkRxPower(from, to, txPower, dist),
			Bearing: bearing,
			Payload: payload,
		},
	})
}
