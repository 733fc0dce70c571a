package netsim

import (
	"errors"
	"math"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
)

// recorder is a Process that records everything it sees. These tests
// exchange assorted plain values, so they run the simulator over any.
type recorder struct {
	inits      int
	deliveries []Delivery[any]
	timers     []int
	onInit     func(ctx *Context[any])
	onRecv     func(ctx *Context[any], d Delivery[any])
	onTimer    func(ctx *Context[any], kind int, v float64)
}

func (r *recorder) Init(ctx *Context[any]) {
	r.inits++
	if r.onInit != nil {
		r.onInit(ctx)
	}
}
func (r *recorder) Recv(ctx *Context[any], d Delivery[any]) {
	r.deliveries = append(r.deliveries, d)
	if r.onRecv != nil {
		r.onRecv(ctx, d)
	}
}
func (r *recorder) Timer(ctx *Context[any], kind int, v float64) {
	r.timers = append(r.timers, kind)
	if r.onTimer != nil {
		r.onTimer(ctx, kind, v)
	}
}

func testModel() radio.Model { return radio.Default(500) }

func newSim(t *testing.T, pos []geom.Point, opts Options) (*Sim[any], []*recorder) {
	t.Helper()
	s, err := New[any](pos, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recorder, len(pos))
	for i := range pos {
		recs[i] = &recorder{}
		s.SetProcess(i, recs[i])
	}
	return s, recs
}

func TestOptionsValidate(t *testing.T) {
	m := testModel()
	tests := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"default", DefaultOptions(m), true},
		{"bad model", Options{Latency: 1}, false},
		{"zero latency", Options{Model: m}, false},
		{"negative jitter", Options{Model: m, Latency: 1, Jitter: -1}, false},
		{"drop prob 1", Options{Model: m, Latency: 1, DropProb: 1}, false},
		{"dup prob negative", Options{Model: m, Latency: 1, DupProb: -0.1}, false},
		{"noise negative", Options{Model: m, Latency: 1, AoANoise: -0.1}, false},
		{"lossy ok", Options{Model: m, Latency: 1, Jitter: 2, DropProb: 0.3, DupProb: 0.2, AoANoise: 0.01}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.opts.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, ok=%v", err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrBadOptions) {
				t.Errorf("error must wrap ErrBadOptions: %v", err)
			}
		})
	}
}

func TestBroadcastRangeSemantics(t *testing.T) {
	m := testModel()
	// Node 1 at 100, node 2 at 300, node 3 at 501 from node 0.
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(300, 0), geom.Pt(501, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))

	s.ScheduleAt(1, func() {
		ctx := &Context[any]{sim: s, id: 0}
		ctx.Broadcast(m.PowerFor(300), "hello")
	})
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}

	if len(recs[1].deliveries) != 1 || len(recs[2].deliveries) != 1 {
		t.Errorf("nodes within range must receive exactly once: %d, %d",
			len(recs[1].deliveries), len(recs[2].deliveries))
	}
	if len(recs[3].deliveries) != 0 {
		t.Errorf("node beyond power range must not receive")
	}
	if len(recs[0].deliveries) != 0 {
		t.Errorf("sender must not receive its own broadcast")
	}

	d := recs[1].deliveries[0]
	if d.From != 0 || d.Payload != "hello" {
		t.Errorf("unexpected delivery: %+v", d)
	}
	if want := m.PowerFor(300); !almostEq(d.TxPower, want, 1e-9) {
		t.Errorf("TxPower = %v, want %v", d.TxPower, want)
	}
	// Reception power at distance 100 of a p(300) transmission.
	if want := m.ReceivedPower(m.PowerFor(300), 100); !almostEq(d.RxPower, want, 1e-9) {
		t.Errorf("RxPower = %v, want %v", d.RxPower, want)
	}
	// Needed power recovered from (tx, rx) equals p(100).
	if got := m.NeededPower(d.TxPower, d.RxPower); !almostEq(got, m.PowerFor(100), 1e-6) {
		t.Errorf("recovered needed power = %v, want p(100)", got)
	}
	// Bearing: node 1 sees node 0 to its west.
	if !almostEq(d.Bearing, math.Pi, 1e-9) {
		t.Errorf("Bearing = %v, want π", d.Bearing)
	}
}

func TestUnicastOnlyTarget(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))

	s.ScheduleAt(1, func() {
		ctx := &Context[any]{sim: s, id: 0}
		ctx.Unicast(2, m.MaxPower(), "direct")
	})
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	if len(recs[1].deliveries) != 0 {
		t.Errorf("unicast must not deliver to bystanders")
	}
	if len(recs[2].deliveries) != 1 {
		t.Errorf("unicast target must receive")
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(400, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))
	s.ScheduleAt(1, func() {
		ctx := &Context[any]{sim: s, id: 0}
		ctx.Unicast(1, m.PowerFor(100), "too weak")
	})
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	if len(recs[1].deliveries) != 0 {
		t.Errorf("under-powered unicast must not deliver")
	}
}

func TestTimers(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))
	var fireTime float64
	recs[0].onInit = func(ctx *Context[any]) {
		ctx.SetTimer(5, 7, 0)
	}
	recs[0].onTimer = func(ctx *Context[any], kind int, v float64) {
		fireTime = ctx.Now()
	}
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	if len(recs[0].timers) != 1 || recs[0].timers[0] != 7 {
		t.Fatalf("timers = %v, want [7]", recs[0].timers)
	}
	if !almostEq(fireTime, 5, 1e-9) {
		t.Errorf("timer fired at %v, want 5", fireTime)
	}
}

func TestCrashStopsEverything(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))
	recs[0].onInit = func(ctx *Context[any]) {
		ctx.SetTimer(10, 1, 0) // would fire after the crash
	}
	s.ScheduleAt(5, func() { s.Crash(0) })
	s.ScheduleAt(6, func() {
		ctx := &Context[any]{sim: s, id: 1}
		ctx.Broadcast(m.MaxPower(), "are you there")
	})
	s.ScheduleAt(7, func() {
		// Crashed nodes cannot send either.
		ctx := &Context[any]{sim: s, id: 0}
		ctx.Broadcast(m.MaxPower(), "ghost")
	})
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	if len(recs[0].timers) != 0 {
		t.Errorf("crashed node processed a timer")
	}
	if len(recs[0].deliveries) != 0 {
		t.Errorf("crashed node received a message")
	}
	if len(recs[1].deliveries) != 0 {
		t.Errorf("a crashed node transmitted")
	}
	if !s.Crashed(0) || s.Crashed(1) {
		t.Errorf("crash flags wrong")
	}
}

func TestDropAndDuplicate(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	const rounds = 2000

	run := func(drop, dup float64) (delivered int, stats Stats) {
		opts := DefaultOptions(m)
		opts.DropProb = drop
		opts.DupProb = dup
		opts.Seed = 99
		s, recs := newSim(t, pos, opts)
		for i := 0; i < rounds; i++ {
			at := float64(i + 1)
			s.ScheduleAt(at, func() {
				ctx := &Context[any]{sim: s, id: 0}
				ctx.Broadcast(m.PowerFor(200), i)
			})
		}
		if err := s.RunUntilQuiet(1e9); err != nil {
			t.Fatal(err)
		}
		return len(recs[1].deliveries), s.Stats()
	}

	delivered, stats := run(0.3, 0)
	if delivered == rounds || delivered == 0 {
		t.Errorf("drop probability 0.3 delivered %d of %d", delivered, rounds)
	}
	ratio := float64(delivered) / rounds
	if ratio < 0.6 || ratio > 0.8 {
		t.Errorf("delivery ratio %v, want ≈ 0.7", ratio)
	}
	if stats.Dropped != rounds-delivered {
		t.Errorf("Dropped = %d, want %d", stats.Dropped, rounds-delivered)
	}

	delivered, stats = run(0, 0.25)
	if delivered <= rounds {
		t.Errorf("duplication must deliver more than %d, got %d", rounds, delivered)
	}
	if stats.Duplicated != delivered-rounds {
		t.Errorf("Duplicated = %d, want %d", stats.Duplicated, delivered-rounds)
	}
}

func TestDeterminism(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 50)}
	history := func(seed uint64) []Delivery[any] {
		opts := DefaultOptions(m)
		opts.Jitter = 3
		opts.DropProb = 0.2
		opts.Seed = seed
		s, recs := newSim(t, pos, opts)
		// Every node broadcasts periodically and echoes on reception.
		for i := range pos {
			id := i
			recs[i].onInit = func(ctx *Context[any]) { ctx.SetTimer(float64(id+1), 0, 0) }
			recs[i].onTimer = func(ctx *Context[any], kind int, v float64) {
				ctx.Broadcast(m.PowerFor(250), ctx.Now())
				if ctx.Now() < 50 {
					ctx.SetTimer(5, 0, 0)
				}
			}
		}
		if err := s.RunUntilQuiet(1e9); err != nil {
			t.Fatal(err)
		}
		var all []Delivery[any]
		for _, r := range recs {
			all = append(all, r.deliveries...)
		}
		return all
	}

	a, b := history(7), history(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different delivery %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := history(8)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("different seeds produced identical histories")
		}
	}
}

func TestMoveNodeAffectsLaterTransmissions(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(1200, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))

	s.ScheduleAt(1, func() {
		ctx := &Context[any]{sim: s, id: 0}
		ctx.Broadcast(m.MaxPower(), "before")
	})
	s.ScheduleAt(2, func() { s.MoveNode(1, geom.Pt(300, 0)) })
	s.ScheduleAt(3, func() {
		ctx := &Context[any]{sim: s, id: 0}
		ctx.Broadcast(m.MaxPower(), "after")
	})
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	if len(recs[1].deliveries) != 1 || recs[1].deliveries[0].Payload != "after" {
		t.Errorf("move must bring the node into range: %+v", recs[1].deliveries)
	}
	if got := s.Position(1); got != geom.Pt(300, 0) {
		t.Errorf("Position = %v, want (300,0)", got)
	}
}

func TestAoANoise(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	opts := DefaultOptions(m)
	opts.AoANoise = 0.05
	opts.Seed = 3
	s, recs := newSim(t, pos, opts)
	for i := 0; i < 200; i++ {
		s.ScheduleAt(float64(i+1), func() {
			ctx := &Context[any]{sim: s, id: 0}
			ctx.Broadcast(m.PowerFor(150), "ping")
		})
	}
	if err := s.RunUntilQuiet(1e9); err != nil {
		t.Fatal(err)
	}
	var spread, mean float64
	for _, d := range recs[1].deliveries {
		mean += geom.AngularDist(d.Bearing, math.Pi)
	}
	mean /= float64(len(recs[1].deliveries))
	for _, d := range recs[1].deliveries {
		dev := geom.AngularDist(d.Bearing, math.Pi)
		spread += (dev - mean) * (dev - mean)
	}
	if mean == 0 && spread == 0 {
		t.Errorf("AoA noise had no effect on measured bearings")
	}
	if mean > 0.2 {
		t.Errorf("mean AoA error %v too large for σ=0.05", mean)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))
	recs[0].onInit = func(ctx *Context[any]) { ctx.SetTimer(10, 0, 0) }
	recs[0].onTimer = func(ctx *Context[any], kind int, v float64) {
		ctx.SetTimer(10, 0, 0) // forever
	}
	s.Run(35)
	if got := len(recs[0].timers); got != 3 {
		t.Errorf("timers fired = %d, want 3 (t=10,20,30)", got)
	}
	if err := s.RunUntilQuiet(50); err == nil {
		t.Errorf("RunUntilQuiet must fail for a non-converging schedule")
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Same-time events run in scheduling order: the (time, sequence) total
// order makes simulations reproducible even under event ties.
func TestEventTieBreaking(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0)}
	s, _ := newSim(t, pos, DefaultOptions(m))
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleAt(5, func() { order = append(order, i) })
	}
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("tie order = %v, want ascending scheduling order", order)
		}
	}
}

// ScheduleAt in the past clamps to the current time instead of
// rewinding the clock.
func TestScheduleAtPastClamps(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0)}
	s, _ := newSim(t, pos, DefaultOptions(m))
	s.Run(50)
	fired := -1.0
	s.ScheduleAt(10, func() { fired = s.Now() })
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	if fired < 50 {
		t.Errorf("past event fired at %v, want ≥ 50", fired)
	}
}

// AddNode mid-run: the new node participates from its Init on.
func TestAddNodeMidRun(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0)}
	s, recs := newSim(t, pos, DefaultOptions(m))
	s.Run(10)
	id := s.AddNode(geom.Pt(100, 0))
	if id != 1 {
		t.Fatalf("AddNode id = %d, want 1", id)
	}
	rec := &recorder{}
	s.SetProcess(id, rec)
	s.ScheduleAt(20, func() {
		ctx := &Context[any]{sim: s, id: 0}
		ctx.Broadcast(m.PowerFor(200), "welcome")
	})
	if err := s.RunUntilQuiet(100); err != nil {
		t.Fatal(err)
	}
	if rec.inits != 1 {
		t.Errorf("new node inits = %d, want 1", rec.inits)
	}
	if len(rec.deliveries) != 1 || rec.deliveries[0].Payload != "welcome" {
		t.Errorf("new node deliveries = %+v", rec.deliveries)
	}
	if s.Energy(id) != 0 {
		t.Errorf("silent new node spent energy")
	}
	_ = recs
}
