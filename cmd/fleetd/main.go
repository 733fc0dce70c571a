// Command fleetd is a long-lived, fault-tolerant fleet daemon: it
// restores a CBTC(α) fleet from its newest readable checkpoint
// generation (or builds a fresh one), replays its write-ahead log,
// ingests a stream of Join/Leave/Move events, coalesces them into
// per-network fleet ticks, serves topology queries while ticking
// continues, and checkpoints the complete fleet state — sessions, RNG
// streams, per-member clocks, accumulators — on an interval and on
// graceful shutdown.
//
// Usage:
//
//	fleetd -checkpoint fleet.ckpt [-http :8080]
//	       [-m 4] [-n 100] [-kind uniform|clustered] [-seed 7]
//	       [-tick 100ms] [-checkpoint-interval 30s] [-generations 2]
//	       [-queue 4096] [-workers 0]
//	       [-battery-capacity 0] [-battery-drain 1]
//
// -battery-capacity > 0 gives every node a battery of that capacity,
// drained each tick by -battery-drain × p(radius); /healthz then
// reports the fleet's mean residual energy ("residual") and the pooled
// energy variance ("energy_var") alongside connectivity.
//
// # Durability
//
// Two artifacts cooperate so that no acknowledged event is ever lost:
//
//   - A write-ahead log at <checkpoint>.wal. Every accepted event
//     batch is appended — length-prefixed, CRC-checked, stamped with
//     the member tick it produces — and fsynced before it is applied
//     or acknowledged. A torn tail from a crash mid-append is detected
//     and truncated on restart.
//
//   - Generational checkpoints. Each checkpoint write is verified
//     before it is committed: the bytes are decoded and put through
//     every check a restore makes (engine fingerprints, RNG states,
//     battery vectors, node rows). Verification builds no grid or
//     graph: those are pure functions of the checked rows, positions
//     and liveness, so building them would check nothing more. Then
//     the previous generations rotate down: <checkpoint> is newest,
//     <checkpoint>.1 older, up to -generations. Restore tries newest
//     to oldest, so a generation corrupted on disk falls back to the
//     next one.
//
// On startup the daemon restores the newest readable generation,
// replays the log past the restored per-member watermarks (replay is
// idempotent: batches at or below a member's clock are skipped), then
// writes a fresh verified checkpoint and compacts the log. Compaction
// drops only records that the oldest retained generation already
// covers — never merely the newest — so falling back to any older
// generation always finds the events it is missing still in the log,
// at the cost of the log holding roughly the event span of the
// generation window between restarts.
//
// The ack contract: a POST /events response is written only after the
// accepted events are fsynced to the log and applied, so 202 (and the
// "accepted" count of any response) means those events survive a
// kill -9 and will be present after restart. A post does not wait for
// a clock: once its events are queued it starts a tick, which runs at
// once if the previous tick began at least -tick ago and otherwise at
// that boundary. An ack therefore costs its tick's log append, fsync
// and repair, plus at most one -tick of spacing when the daemon is
// busy. 429 means the queue was full and some events were refused
// (Retry-After says when to retry); those were not logged.
//
// # Failure isolation
//
// A member whose tick panics is quarantined by the fleet layer: its
// clock freezes, the panic and stack are recorded, and the other
// members keep ticking. fleetd keeps serving — events addressed to a
// quarantined member are rejected at ingestion, /healthz turns
// degraded (503) and reports the casualty count, and checkpoints are
// refused by the fleet until the member is readmitted, so the daemon
// falls back to its last good generations plus the log, which keeps
// accumulating. A fatal daemon error attempts one best-effort
// checkpoint before exiting; interval checkpoint failures are retried
// with jittered exponential backoff.
//
// # Ingestion and queries
//
// Events are newline-delimited JSON objects:
//
//	{"op":"join","net":0,"x":120.5,"y":340.0}
//	{"op":"leave","net":0,"id":17}
//	{"op":"move","net":1,"id":3,"x":88.0,"y":12.5}
//
// Without -http, events are read from stdin with blocking
// backpressure (EOF triggers a final tick, a checkpoint, and a clean
// exit). With -http, the daemon serves:
//
//	POST /events      ingest newline-framed events (202 = durable;
//	                  429 + Retry-After when the queue is full;
//	                  400 when the stream is malformed, a line
//	                  exceeds 1 MiB or the body exceeds 16 MiB)
//	GET  /healthz     liveness, counters, watermarks, checkpoint age;
//	                  503 when degraded
//	GET  /report      the aggregated FleetReport as JSON
//	GET  /network/{i} one member's FleetNetworkReport as JSON
//	POST /checkpoint  force a checkpoint write now
//
// Ingestion is decoupled from repair by a bounded queue. Ticks are
// event-driven, a leading-edge group commit: queued work wakes the
// loop, and ticks run at least -tick apart, so an idle daemon never
// ticks and a busy one coalesces whatever queued since the previous
// tick. Each tick drains the whole queue, validates events against
// each network's projected liveness (bad events are counted and
// dropped, never crash a network), logs the survivors as one record
// with one fsync, and applies each network's burst as one batched
// repair (Fleet.TickEvents). Only networks that received
// traffic tick — the others' clocks stand still — so per-member tick
// counts diverge under skewed traffic; /report and /healthz expose the
// divergence as min/max watermarks plus per-member clocks. The queries
// that read topology — /report, /network/{i} and /healthz's component
// count — take the fleet lock, which a tick holds for its whole repair:
// a query waits for a tick in flight, and a tick waits for the queries
// in flight. Each member's part of a query is read from the state its
// session maintains through every repair (counters, components,
// degrees), with no snapshot or graph traversal, so the lock is held
// for tens of microseconds per member. Clocks and health are read
// without the lock.
//
// SIGINT/SIGTERM first shut the HTTP server down: it stops accepting
// connections and waits up to 5 s for the requests in flight, while
// the loop keeps ticking for them, so a post whose body is still
// arriving gets its 202. Then the loop drains the queue, applies a
// final tick, writes a final checkpoint, and the daemon exits 0.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cbtc"
	"cbtc/internal/workload"
)

func main() {
	var (
		ckptPath = flag.String("checkpoint", "", "checkpoint file (restore from it if present; write to it on interval and shutdown)")
		ckptIvl  = flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint interval (0 = only on shutdown)")
		gens     = flag.Int("generations", 2, "older checkpoint generations to retain (fleet.ckpt.1..N)")
		httpAddr = flag.String("http", "", "HTTP listen address (empty = read events from stdin)")
		tickIvl  = flag.Duration("tick", 100*time.Millisecond, "minimum spacing of ticks: queued events tick at once, or this long after the previous tick began")
		queueCap = flag.Int("queue", 4096, "ingestion queue capacity (backpressure bound)")
		m        = flag.Int("m", 4, "networks in a fresh fleet")
		n        = flag.Int("n", 100, "nodes per network in a fresh fleet")
		kind     = flag.String("kind", "uniform", "fresh-fleet placement kind: uniform | clustered")
		seed     = flag.Uint64("seed", 7, "fresh-fleet base seed")
		workers  = flag.Int("workers", 0, "worker budget (0 = GOMAXPROCS)")
		batCap   = flag.Float64("battery-capacity", 0, "per-node battery capacity (0 = no battery model)")
		batDrain = flag.Float64("battery-drain", 1, "per-tick battery drain coefficient (scales p(radius))")
	)
	flag.Parse()
	if *tickIvl <= 0 || *queueCap <= 0 || *m <= 0 || *n <= 0 || *gens < 0 {
		fail(errors.New("fleetd: -tick, -queue, -m and -n must be positive and -generations non-negative"))
	}

	// The engine stack is fixed by the flags (paper radius, shrink-back
	// on, battery per -battery-*), so a checkpoint written by fleetd is
	// always restorable by a fleetd started with the same flags.
	sc := workload.Fleet(*m, *n, *kind)
	opts := []cbtc.Option{cbtc.WithMaxRadius(sc.Radius), cbtc.WithShrinkBack(), cbtc.WithWorkers(*workers)}
	if *batCap > 0 {
		opts = append(opts, cbtc.WithBattery(*batCap, *batDrain))
	}
	eng, err := cbtc.New(opts...)
	if err != nil {
		fail(err)
	}

	d := &daemon{
		queue:   make(chan queueItem, *queueCap),
		kick:    make(chan struct{}, 1),
		tickIvl: *tickIvl,
	}
	if *ckptPath != "" {
		d.store = &ckptStore{eng: eng, path: *ckptPath, gens: *gens}
	}
	if err := d.recover(eng, sc, *seed); err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var srv *http.Server
	if *httpAddr != "" {
		srv = newServer(*httpAddr, d.routes())
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				d.fail(err)
			}
		}()
		log.Printf("fleetd: serving on %s", *httpAddr)
	} else {
		// stdin mode: enqueue with blocking backpressure; EOF initiates the
		// same graceful shutdown as a signal.
		go func() {
			res := d.readEvents(os.Stdin, true)
			if res.scanErr != nil {
				log.Printf("fleetd: stdin: %v", res.scanErr)
			}
			stop()
		}()
	}

	// Shut the HTTP server down before the loop stops: Shutdown waits for
	// the requests in flight, and their acks need the loop to keep
	// ticking. The loop then runs its final tick and checkpoint.
	loopCtx, stopLoop := context.WithCancel(context.Background())
	go func() {
		<-ctx.Done()
		if srv != nil {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutCtx)
		}
		stopLoop()
	}()
	d.loop(loopCtx, *ckptIvl)
	log.Printf("fleetd: shut down cleanly after %d ticks (%d events applied, %d rejected, %d dropped)",
		d.ticks.Load(), d.applied.Load(), d.rejected.Load(), d.dropped.Load())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleetd:", err)
	os.Exit(1)
}

// wireEvent is the ingestion JSON shape, and the shape the write-ahead
// log stores.
type wireEvent struct {
	Op  string  `json:"op"`
	Net int     `json:"net"`
	ID  int     `json:"id"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
}

// queueItem is one slot of the ingestion queue: an event, or — when
// ack is non-nil — a durability waiter. The tick loop answers a waiter
// after it has logged and applied every event queued before it, which
// is what lets POST /events respond only once its events are durable.
type queueItem struct {
	ev  wireEvent
	ack chan error
}

// daemon owns the tick loop; HTTP handlers and the stdin reader touch
// only the queue, the atomic counters, and the fleet's own thread-safe
// query surface. The tick loop is the single mutation path: ticks,
// log appends, checkpoints and the final drain never race.
type daemon struct {
	fleet   *cbtc.Fleet
	store   *ckptStore // nil without -checkpoint
	wal     *wal       // nil without -checkpoint
	queue   chan queueItem
	kick    chan struct{} // buffer of one: queued work asks the loop for a tick
	tickIvl time.Duration // minimum spacing of tick starts

	// ckptMu serializes checkpoint writes: the tick loop's interval and
	// shutdown checkpoints against POST /checkpoint handlers. The fleet
	// itself is internally synchronized; this guards the store's
	// generation rotation.
	ckptMu sync.Mutex

	ticks      atomic.Int64 // completed ticks; each drained work, as the loop never ticks idle
	applied    atomic.Int64 // events applied to sessions
	rejected   atomic.Int64 // events dropped at validation (bad net/id/liveness/quarantine)
	dropped    atomic.Int64 // events refused at ingestion (queue full)
	ingestErrs atomic.Int64 // ingestion streams that failed mid-read (oversized line, I/O error)
	ckptFails  atomic.Int64 // consecutive failed checkpoint attempts
	lastCkpt   atomic.Int64 // unix milli of last successful checkpoint (0 = never)
}

// recover brings the daemon to a servable state: restore the newest
// readable checkpoint generation (or build a fresh fleet), replay the
// write-ahead log past the restored watermarks, then checkpoint the
// recovered state and reset the log.
func (d *daemon) recover(eng *cbtc.Engine, sc workload.FleetScenario, seed uint64) error {
	if d.store == nil {
		fleet, err := freshFleet(eng, sc, seed)
		if err != nil {
			return err
		}
		d.fleet = fleet
		log.Printf("fleetd: built fresh fleet: %d networks × %d nodes (%s, seed %d)", sc.M, sc.N, sc.Kind, seed)
		return nil
	}
	fleet, from, err := d.store.Restore()
	switch {
	case err == nil:
		d.fleet = fleet
		log.Printf("fleetd: restored %d networks from %s", fleet.Size(), from)
	case os.IsNotExist(err):
		if d.fleet, err = freshFleet(eng, sc, seed); err != nil {
			return err
		}
		log.Printf("fleetd: built fresh fleet: %d networks × %d nodes (%s, seed %d)", sc.M, sc.N, sc.Kind, seed)
	default:
		return err
	}
	w, recs, err := openWAL(d.store.path + ".wal")
	if err != nil {
		return err
	}
	d.wal = w
	if len(recs) > 0 {
		ticks, events, lost, err := d.replay(recs)
		if err != nil {
			return fmt.Errorf("replay %s.wal: %w", d.store.path, err)
		}
		log.Printf("fleetd: replayed %d logged ticks (%d events, %d lost to quarantine)", ticks, events, lost)
	}
	// Checkpoint the recovered state, then compact the log down to what
	// the oldest retained generation does not cover. If the fleet came
	// up quarantined (a poison batch re-panicked during replay) the
	// checkpoint is refused; keep the whole log so nothing acked is
	// lost and start degraded.
	if err := d.writeCheckpoint(); err != nil {
		log.Printf("fleetd: post-recovery checkpoint failed (starting degraded, log retained): %v", err)
		return nil
	}
	if wm, ok := d.store.oldestWatermarks(); ok {
		keep := func(rec walRecord) bool {
			for _, nb := range rec.Nets {
				if nb.Net >= len(wm.Members) || nb.Tick > wm.Members[nb.Net].Ticks {
					return true
				}
			}
			return false
		}
		compacted, err := d.wal.compact(recs, keep)
		if err != nil {
			return fmt.Errorf("compact %s.wal: %w", d.store.path, err)
		}
		d.wal = compacted
	}
	return nil
}

func freshFleet(eng *cbtc.Engine, sc workload.FleetScenario, seed uint64) (*cbtc.Fleet, error) {
	members := make([]cbtc.MemberSpec, 0, sc.M)
	for _, placement := range sc.Placements(seed) {
		members = append(members, cbtc.MemberSpec{Placement: placement})
	}
	return eng.NewFleet(context.Background(), cbtc.FleetConfig{Members: members, Seed: seed})
}

// replay applies logged records the restored fleet has not yet seen.
// Replay is idempotent by watermark: a batch whose stamped tick the
// member has already completed came from before the checkpoint and is
// skipped; a batch exactly one past the member's clock applies; any
// gap means the checkpoint and log disagree and recovery must stop
// rather than corrupt state. A member that re-panics during replay is
// quarantined again — its remaining batches are counted as lost and
// replay continues for the others.
func (d *daemon) replay(recs []walRecord) (ticks, events, lost int, err error) {
	for _, rec := range recs {
		wm := d.fleet.Watermarks()
		batches := make([][]cbtc.Event, d.fleet.Size())
		stale := true
		for _, nb := range rec.Nets {
			if nb.Net < 0 || nb.Net >= d.fleet.Size() {
				return ticks, events, lost, fmt.Errorf("logged batch for network %d in a fleet of %d", nb.Net, d.fleet.Size())
			}
			mc := wm.Members[nb.Net]
			if mc.Health == cbtc.MemberQuarantined {
				lost += len(nb.Events)
				continue
			}
			switch {
			case nb.Tick <= mc.Ticks:
				// Already inside the restored checkpoint.
			case nb.Tick == mc.Ticks+1:
				batch := make([]cbtc.Event, 0, len(nb.Events))
				for _, ev := range nb.Events {
					batch = append(batch, toEvent(ev))
				}
				batches[nb.Net] = batch
				stale = false
			default:
				return ticks, events, lost, fmt.Errorf("network %d is at tick %d but the log resumes at tick %d", nb.Net, mc.Ticks, nb.Tick)
			}
		}
		if stale {
			continue
		}
		err := d.fleet.TickEvents(context.Background(), batches)
		var qe *cbtc.QuarantineError
		if errors.As(err, &qe) {
			for _, c := range qe.Casualties {
				log.Printf("fleetd: replay quarantined network %d at tick %d: %s", c.Net, c.Tick, c.Err)
				lost += len(batches[c.Net])
			}
			err = nil
		}
		if err != nil {
			return ticks, events, lost, err
		}
		ticks++
		for i, b := range batches {
			if b != nil && d.fleet.Watermarks().Members[i].Health == cbtc.MemberHealthy {
				events += len(b)
			}
		}
	}
	return ticks, events, lost, nil
}

func toEvent(ev wireEvent) cbtc.Event {
	switch ev.Op {
	case "join":
		return cbtc.JoinEvent(cbtc.Pt(ev.X, ev.Y))
	case "leave":
		return cbtc.LeaveEvent(ev.ID)
	default:
		return cbtc.MoveEvent(ev.ID, cbtc.Pt(ev.X, ev.Y))
	}
}

// Checkpoint retry backoff bounds (jittered exponential).
const (
	ckptRetryMin = 500 * time.Millisecond
	ckptRetryMax = 15 * time.Second
)

// HTTP limits. A client that never finishes its request headers, or an
// idle keep-alive connection, is disconnected instead of holding its
// connection forever. One POST /events body is capped far above the
// 1 MiB line cap; a body over it fails the stream as an oversized line
// does, with a 400 that still reports the events accepted before the
// cap.
//
// readTimeout bounds the read of a whole request, body included, so a
// client cannot trickle a body below the cap for as long as it likes;
// the body read fails and the stream ends in the same 400. The deadline
// stays armed while the handler runs, and when it fires during
// net/http's background read it cancels r.Context() — which POST
// /events waits on for its durable ack. It therefore sits far above any
// durable-ack wait: at most one -tick to the next tick boundary, plus
// that tick's WAL fsync and repair.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
	maxEventsBody     = 16 << 20
)

// newServer returns the daemon's HTTP server with its connection
// timeouts set.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// loop is the daemon's single mutation path. It ticks only when work
// is queued: a kick runs a tick at once if the previous tick began at
// least d.tickIvl ago, and otherwise arms the timer for that boundary,
// so under load ticks stay d.tickIvl apart and each drains whatever
// queued meanwhile. A tick that leaves work queued arms the timer too,
// so nothing waits more than two intervals even if its kick was spent.
// Interval checkpoint failures schedule a jittered-backoff retry
// instead of waiting a full interval; /healthz reports degraded until
// one succeeds.
func (d *daemon) loop(ctx context.Context, ckptIvl time.Duration) {
	var ckptC <-chan time.Time
	if d.store != nil && ckptIvl > 0 {
		ck := time.NewTicker(ckptIvl)
		defer ck.Stop()
		ckptC = ck.C
	}
	var (
		retryC  <-chan time.Time
		backoff = ckptRetryMin
	)
	checkpoint := func() {
		if err := d.writeCheckpoint(); err != nil {
			delay := backoff/2 + rand.N(backoff/2+1)
			log.Printf("fleetd: checkpoint: %v (retrying in %v)", err, delay.Round(time.Millisecond))
			retryC = time.After(delay)
			backoff = min(backoff*2, ckptRetryMax)
			return
		}
		retryC, backoff = nil, ckptRetryMin
	}
	var (
		last  time.Time // when the latest tick began
		timer = time.NewTimer(d.tickIvl)
		dueC  <-chan time.Time // timer.C while a tick waits for its boundary
	)
	timer.Stop()
	defer timer.Stop()
	arm := func() {
		timer.Reset(d.tickIvl - time.Since(last))
		dueC = timer.C
	}
	tick := func() {
		dueC, last = nil, time.Now()
		d.tickOnce()
		if len(d.queue) > 0 {
			arm()
		}
	}
	for {
		select {
		case <-ctx.Done():
			// Graceful shutdown: apply whatever is queued, then persist.
			// The log is never reset here — the next start compacts it
			// against the oldest generation, so a failed or corrupted
			// final checkpoint can still fall back losslessly.
			d.tickOnce()
			if err := d.writeCheckpoint(); err != nil {
				log.Printf("fleetd: final checkpoint failed (log retained): %v", err)
			}
			return
		case <-d.kick:
			switch {
			case dueC != nil || len(d.queue) == 0:
				// A tick is already due, or an earlier tick took the work
				// this kick announced.
			case time.Since(last) >= d.tickIvl:
				tick()
			default:
				arm()
			}
		case <-dueC:
			tick()
		case <-ckptC:
			checkpoint()
		case <-retryC:
			checkpoint()
		}
	}
}

// drained is one tick's take from the queue.
type drained struct {
	items    int            // queue slots taken: events and waiters
	accepted int            // events that passed validation
	batches  [][]cbtc.Event // each network's accepted events; nil without traffic
	wires    [][]wireEvent  // the same events in their logged form
	waiters  []chan error   // durability waiters, answered once the tick commits
}

// drain empties the queue and validates each event against its
// network's liveness as projected through the earlier events of the
// same tick, mirroring Session.ValidateBatch, so one bad event is
// dropped instead of voiding the whole batch. Rejected events, and
// events addressed to a quarantined network, are counted in d.rejected
// and left out. drain never fails; what a tick commits is tickOnce's
// decision.
func (d *daemon) drain() drained {
	var (
		t = drained{
			batches: make([][]cbtc.Event, d.fleet.Size()),
			wires:   make([][]wireEvent, d.fleet.Size()),
		}
		proj = make([]liveProjection, d.fleet.Size())
		quar = quarantinedSet(d.fleet)
	)
	for {
		var item queueItem
		select {
		case item = <-d.queue:
		default:
			return t
		}
		t.items++
		if item.ack != nil {
			t.waiters = append(t.waiters, item.ack)
			continue
		}
		ev := item.ev
		if ev.Net < 0 || ev.Net >= d.fleet.Size() || quar[ev.Net] {
			d.rejected.Add(1)
			continue
		}
		p := &proj[ev.Net]
		p.init(d.fleet.Session(ev.Net))
		switch ev.Op {
		case "join":
			p.admit()
		case "leave":
			if !p.live(ev.ID) {
				d.rejected.Add(1)
				continue
			}
			p.depart(ev.ID)
		case "move":
			if !p.live(ev.ID) {
				d.rejected.Add(1)
				continue
			}
		default:
			d.rejected.Add(1)
			continue
		}
		t.batches[ev.Net] = append(t.batches[ev.Net], toEvent(ev))
		t.wires[ev.Net] = append(t.wires[ev.Net], ev)
		t.accepted++
	}
}

// tickOnce drains the queue, logs the accepted events, ticks the
// networks that received traffic, and finally answers the durability
// waiters drained alongside. An empty queue is no tick at all.
// Traffic-less networks keep a nil batch and are skipped — their
// clocks stand still, which is where ragged watermarks come from. A
// network that panics during this tick is quarantined by the fleet
// while the rest of the tick commits.
func (d *daemon) tickOnce() {
	t := d.drain()
	if t.items == 0 {
		return
	}
	finish := func(err error) {
		for _, ack := range t.waiters {
			ack <- err
		}
	}
	if t.accepted > 0 && d.wal != nil {
		wm := d.fleet.Watermarks()
		var rec walRecord
		for i, evs := range t.wires {
			if evs != nil {
				rec.Nets = append(rec.Nets, walBatch{Net: i, Tick: wm.Members[i].Ticks + 1, Events: evs})
			}
		}
		if err := d.wal.Append(rec); err != nil {
			// The events cannot be made durable: refuse the acks, then go
			// down (with a best-effort checkpoint) rather than silently
			// degrade the 202-means-durable contract.
			finish(err)
			d.fail(fmt.Errorf("write-ahead log append: %w", err))
		}
	}
	applied := t.accepted
	err := d.fleet.TickEvents(context.Background(), t.batches)
	var qe *cbtc.QuarantineError
	if errors.As(err, &qe) {
		// The casualties' batches did not commit, but they are in the
		// log: a restart replays them against the pre-panic state. The
		// healthy members' batches committed; keep serving degraded.
		for _, c := range qe.Casualties {
			log.Printf("fleetd: quarantined network %d at tick %d: %s", c.Net, c.Tick, c.Err)
			applied -= len(t.batches[c.Net])
		}
		err = nil
	}
	if err != nil {
		// Pre-validation makes this unreachable short of a fleet-level
		// failure; a half-applied tick must not keep serving.
		finish(err)
		d.fail(err)
	}
	d.ticks.Add(1)
	d.applied.Add(int64(applied))
	finish(nil)
}

// quarantinedSet snapshots which members are quarantined. The tick
// loop is the only mutation path, so the set is stable for the
// duration of a drain.
func quarantinedSet(f *cbtc.Fleet) map[int]bool {
	h := f.Health()
	if h.Quarantined == 0 {
		return nil
	}
	q := make(map[int]bool, h.Quarantined)
	for _, m := range h.Members {
		if m.Health == cbtc.MemberQuarantined {
			q[m.Net] = true
		}
	}
	return q
}

// fail attempts one best-effort checkpoint (the write-ahead log is NOT
// reset — if the checkpoint is bad or refused, the log still covers
// it) and exits. It must only be called from the tick loop or before
// serving starts.
func (d *daemon) fail(err error) {
	if d.store != nil && d.fleet != nil {
		d.ckptMu.Lock()
		defer d.ckptMu.Unlock()
		if cerr := d.store.Write(d.fleet); cerr != nil {
			log.Printf("fleetd: crash checkpoint failed: %v", cerr)
		} else {
			log.Printf("fleetd: crash checkpoint written to %s", d.store.path)
		}
	}
	fail(err)
}

// liveProjection tracks one network's liveness as this tick's batch
// would leave it, lazily initialized from the session.
type liveProjection struct {
	sess    *cbtc.Session
	next    int          // node-id space size after projected joins
	overlay map[int]bool // projected liveness where it differs
}

func (p *liveProjection) init(s *cbtc.Session) {
	if p.sess == nil {
		p.sess = s
		p.next = s.Len()
		p.overlay = make(map[int]bool)
	}
}

func (p *liveProjection) admit() { p.overlay[p.next] = true; p.next++ }

func (p *liveProjection) depart(id int) { p.overlay[id] = false }

func (p *liveProjection) live(id int) bool {
	if id < 0 || id >= p.next {
		return false
	}
	if v, ok := p.overlay[id]; ok {
		return v
	}
	return id < p.sess.Len() && p.sess.Alive(id)
}

// writeCheckpoint persists the fleet through the generational store
// and tracks checkpoint health for /healthz. It never resets the
// write-ahead log — only recovery and clean shutdown do that, after
// verifying the checkpoint that covers it.
func (d *daemon) writeCheckpoint() error {
	if d.store == nil {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	err := d.store.Write(d.fleet)
	// A write's transient working set, the encoded fleet plus the state
	// decoded back from it for verification, is a sizable fraction of
	// the live fleet. Collect it as soon as the write returns: a GC cycle
	// that started mid-write would size the next heap goal from that
	// transient peak, leaving the daemon's peak resident set to where
	// the cycle happened to fall.
	runtime.GC()
	if err != nil {
		d.ckptFails.Add(1)
		return err
	}
	d.ckptFails.Store(0)
	d.lastCkpt.Store(time.Now().UnixMilli())
	return nil
}

// ingestResult summarizes one readEvents call.
type ingestResult struct {
	accepted, malformed, dropped int
	scanErr                      error // stream died mid-read: oversized line or I/O failure
}

// readEvents decodes newline-framed JSON events from r and enqueues
// them. When block is true a full queue exerts backpressure on the
// producer; otherwise the event is counted as dropped. A scanner
// failure — a line over the 1 MiB limit, or the reader erroring, as a
// POST body over maxEventsBody does — is surfaced in the result and
// counted, never silently swallowed: the caller must be able to tell
// "stream consumed" from "stream died".
func (d *daemon) readEvents(r io.Reader, block bool) ingestResult {
	var res ingestResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev wireEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			res.malformed++
			d.rejected.Add(1)
			continue
		}
		if block {
			// No durability waiter follows these events, so each one
			// wakes the loop itself.
			d.queue <- queueItem{ev: ev}
			d.wake()
			res.accepted++
			continue
		}
		select {
		case d.queue <- queueItem{ev: ev}:
			res.accepted++
		default:
			res.dropped++
			d.dropped.Add(1)
		}
	}
	if err := sc.Err(); err != nil {
		res.scanErr = err
		d.ingestErrs.Add(1)
		log.Printf("fleetd: event stream failed mid-read: %v", err)
	}
	return res
}

// wake asks the loop for a tick. One pending kick is enough: a kick
// sent while another is pending adds nothing.
func (d *daemon) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// awaitDurable enqueues a durability waiter behind the caller's events,
// wakes the tick loop, and blocks until the loop has logged and applied
// them. The waiter sits behind its post's events in the FIFO queue, so
// the tick it wakes takes the whole post; a kick per event could tick
// on part of a post and leave its waiter a full interval behind. A
// waiter that finds the queue full wakes the loop before it blocks.
func (d *daemon) awaitDurable(ctx context.Context) error {
	ack := make(chan error, 1) // buffered: the loop never blocks on an abandoned waiter
	select {
	case d.queue <- queueItem{ack: ack}:
	default:
		d.wake()
		select {
		case d.queue <- queueItem{ack: ack}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	d.wake()
	select {
	case err := <-ack:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// routes builds the HTTP query/ingestion surface. Queries read the
// fleet through its synchronized methods. Report, NetworkReport and
// Observe take the fleet lock, so they wait for a tick in flight and
// delay the next tick by their own read, which comes from each
// member's maintained state; Watermarks and Health are lock-free.
func (d *daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /events", func(w http.ResponseWriter, r *http.Request) {
		res := d.readEvents(http.MaxBytesReader(w, r.Body, maxEventsBody), false)
		if res.accepted > 0 {
			// Hold the response until the accepted events are fsynced to
			// the log and applied: the reported counts are durable facts.
			if err := d.awaitDurable(r.Context()); err != nil {
				http.Error(w, "events accepted but not yet durable: "+err.Error(), http.StatusInternalServerError)
				return
			}
		}
		body := map[string]any{
			"accepted": res.accepted, "malformed": res.malformed, "dropped": res.dropped,
		}
		status := http.StatusAccepted
		switch {
		case res.scanErr != nil:
			status = http.StatusBadRequest
			body["error"] = res.scanErr.Error()
		case res.dropped > 0:
			status = http.StatusTooManyRequests
			// The waiter woke the loop, so the queue drains by the next
			// tick boundary, at most one -tick away: that is when
			// retrying can help.
			secs := int(d.tickIvl.Round(time.Second) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(max(secs, 1)))
		}
		writeJSON(w, status, body)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		wm := d.fleet.Watermarks()
		health := d.fleet.Health()
		ckptAge := int64(-1)
		if t := d.lastCkpt.Load(); t > 0 {
			ckptAge = time.Now().UnixMilli() - t
		}
		degraded := health.Quarantined > 0 || d.ckptFails.Load() > 0
		status := http.StatusOK
		state := "ok"
		if degraded {
			status = http.StatusServiceUnavailable
			state = "degraded"
		}
		// Connectivity comes from the sessions' maintained component
		// structures — O(changed) per member, cheap enough for every
		// probe. A fleet of healthy connected networks reports
		// components == networks - quarantined.
		obs, obsErr := d.fleet.Observe()
		components, live := -1, -1
		residual, energyVar := 0.0, 0.0
		if obsErr == nil {
			components, live = obs.Components, obs.Live
			residual, energyVar = obs.Residual, obs.EnergyVar
		}
		writeJSON(w, status, map[string]any{
			"status":                 state,
			"networks":               d.fleet.Size(),
			"quarantined":            health.Quarantined,
			"components":             components,
			"live":                   live,
			"residual":               residual,
			"energy_var":             energyVar,
			"ticks":                  d.ticks.Load(),
			"ticks_min":              wm.Ticks.Min,
			"ticks_max":              wm.Ticks.Max,
			"applied":                d.applied.Load(),
			"rejected":               d.rejected.Load(),
			"dropped":                d.dropped.Load(),
			"ingest_errors":          d.ingestErrs.Load(),
			"queued":                 len(d.queue),
			"checkpoint_failures":    d.ckptFails.Load(),
			"last_checkpoint_age_ms": ckptAge,
		})
	})
	mux.HandleFunc("GET /report", func(w http.ResponseWriter, r *http.Request) {
		rep, err := d.fleet.Report()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /network/{i}", func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.PathValue("i"))
		if err != nil || i < 0 || i >= d.fleet.Size() {
			http.Error(w, "no such network", http.StatusNotFound)
			return
		}
		// The JSON is the Go API's FleetNetworkReport verbatim — one
		// shape for HTTP and library consumers.
		nr, err := d.fleet.NetworkReport(i)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, nr)
	})
	mux.HandleFunc("POST /checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if d.store == nil {
			http.Error(w, "no -checkpoint path configured", http.StatusConflict)
			return
		}
		if err := d.writeCheckpoint(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"checkpoint": d.store.path})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
