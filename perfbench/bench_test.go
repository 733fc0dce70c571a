package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"cbtc"
	"cbtc/internal/workload"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.data)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
	if got := spread([]float64{4, 1, 3, 2}); got != (3.75-1.25)/2.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileSmallSamples(t *testing.T) {
	cases := []struct {
		data []float64
		q    float64
		want float64
	}{
		{[]float64{3}, 90, 3},
		{[]float64{1, 2}, 50, 1.5},
		{[]float64{1, 2}, 90, 1.9},
		{[]float64{4, 2, 3, 1}, 50, 2.5},
		{[]float64{4, 2, 3, 1}, 90, 3.7},
		{[]float64{4, 2, 3, 1}, 0, 1},
		{[]float64{4, 2, 3, 1}, 100, 4},
	}
	for _, c := range cases {
		if got := percentile(c.data, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.data, c.q, got, c.want)
		}
	}
	data := []float64{3, 1, 2}
	percentile(data, 50)
	if !slices.Equal(data, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", data)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "op", op: 1, parent: -1, start: 0, end: 100},
		{name: "a", op: 1, parent: 0, start: 10, end: 50},
		{name: "b", op: 1, parent: 0, start: 30, end: 70}, // overlaps a
		{name: "c", op: 1, parent: 0, start: 80, end: 90},
		{name: "d", op: 1, parent: 2, start: 40, end: 60}, // b's child
		{name: "e", op: 1, parent: 3, start: 85, end: 95}, // overruns c: clipped
	}
	self := selfTimes(spans)
	want := []int64{100 - 70, 40, 40 - 20, 10 - 5, 20, 10}
	if !slices.Equal(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	b := layerBreakdown(spans)
	var sum float64
	for _, ns := range b.selfNs {
		sum += ns
	}
	if b.ops != 1 || b.opNs != 100 || sum+b.remainder != b.opNs {
		t.Fatalf("breakdown %+v: self %v + remainder %v ≠ op %v", b, sum, b.remainder, b.opNs)
	}
	// The layers' self times add up to 95 ns of the 100 ns op: the op
	// root's own 30 ns, less the 10 ns a and b overlap and the 5 ns e
	// runs past its parent.
	if b.remainder != 30-10-15 {
		t.Errorf("remainder = %v, want 5", b.remainder)
	}
}

func TestLayerBreakdownAveragesOverOps(t *testing.T) {
	spans := []span{
		{name: "op", op: 1, parent: -1, start: 0, end: 10},
		{name: "x_ms", op: 1, parent: 0, start: 2, end: 8},
		{name: "op", op: 2, parent: -1, start: 20, end: 40},
		{name: "x_ms", op: 2, parent: 2, start: 20, end: 30},
		{name: "y_us", op: 2, parent: 2, start: 30, end: 36},
		{name: "x_ms", op: 3, parent: 0, start: 3, end: 4}, // no root for op 3: ignored
	}
	b := layerBreakdown(spans)
	if b.ops != 2 || b.opNs != 15 || b.selfNs["x_ms"] != 8 || b.selfNs["y_us"] != 3 || b.remainder != 4 {
		t.Fatalf("breakdown %+v", b)
	}
	if got := inUnit("y_us", 3000); got != 3 {
		t.Errorf("inUnit µs = %v", got)
	}
	if got := inUnit("x_ms", 3e6); got != 3 {
		t.Errorf("inUnit ms = %v", got)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	period := 100 * time.Millisecond
	onTime := []sample{
		{due: 0, sent: 0, done: 12 * time.Millisecond},
		{due: period, sent: period, done: period + 9*time.Millisecond},
		{due: 2 * period, sent: 2 * period, done: 2*period + 40*time.Millisecond},
	}
	if got := sendRate(onTime, period); math.Abs(got-10) > 1e-9 {
		t.Errorf("on-time send rate = %v, want the offered 10/s", got)
	}
	if got, want := ackRate(onTime), 3/0.24; math.Abs(got-want) > 1e-9 {
		t.Errorf("ack rate = %v, want %v", got, want)
	}
	// A stall on request 1 holds back request 2 on the same connection:
	// request 2 is sent late and its latency counts from its due time.
	stalled := []sample{
		{due: 0, sent: 0, done: 10 * time.Millisecond},
		{due: period, sent: period, done: period + 250*time.Millisecond},
		{due: 2 * period, sent: period + 250*time.Millisecond, done: period + 260*time.Millisecond},
	}
	if got := stalled[2].latency(); got != 160*time.Millisecond {
		t.Errorf("latency = %v, want 160ms (from due, not from send)", got)
	}
	if got := sendRate(stalled, period); got >= 10 {
		t.Errorf("a late generator must fall below the offered rate, got %v", got)
	}
	o := openLoop{start: time.Now().Add(-time.Second), period: period, seed: 5}
	t0 := time.Now()
	o.wait(2) // due in the past: no sleep
	if waited := time.Since(t0); waited > 50*time.Millisecond {
		t.Errorf("a request already due waited %v", waited)
	}
	var sum time.Duration
	for k := 0; k < 1000; k++ {
		off := o.offset(k) - time.Duration(k)*period
		if off < 0 || off >= period/2 {
			t.Fatalf("request %d jittered by %v, outside [0, %v)", k, off, period/2)
		}
		sum += off
	}
	if mean := sum / 1000; mean < 20*time.Millisecond || mean > 30*time.Millisecond {
		t.Errorf("mean jitter %v, want about a quarter period", mean)
	}
}

func TestReadScheduleInterleavesCheckpoints(t *testing.T) {
	reads := openLoop{period: 100 * time.Millisecond, seed: 3}
	s := readSchedule(reads, 5*time.Second, 2*time.Second)
	var gets, ckpts []time.Duration
	for i, r := range s {
		if i > 0 && r.due < s[i-1].due {
			t.Fatalf("schedule out of order at %d: %v after %v", i, r.due, s[i-1].due)
		}
		if r.ckpt {
			ckpts = append(ckpts, r.due)
		} else {
			gets = append(gets, r.due)
		}
	}
	if len(gets) != 50 {
		t.Errorf("%d gets, want 50", len(gets))
	}
	for j, due := range gets {
		if lo := time.Duration(j) * reads.period; due < lo || due >= lo+reads.period/2 {
			t.Errorf("get %d due at %v, outside [%v, %v)", j, due, lo, lo+reads.period/2)
		}
	}
	if want := []time.Duration{2075 * time.Millisecond, 4075 * time.Millisecond}; !slices.Equal(ckpts, want) {
		t.Errorf("checkpoints at %v, want %v", ckpts, want)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (fleet (d) x) S 1 4242 4242 0 -1 4194560 1953 0 0 0 250 37 0 0 20 0 9 0 123 456 789\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2870 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStat([]byte("4242 (short) S 1 2")); err == nil {
		t.Error("truncated stat line parsed")
	}
	if _, err := parseProcStat([]byte("no command")); err == nil {
		t.Error("stat line without a command parsed")
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  126889 0 10280 490288 1792 0 2174 19077 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	steal, total, err := parseSteal([]byte(stat))
	if err != nil || steal != 19077 || total != 126889+10280+490288+1792+2174+19077 {
		t.Errorf("parseSteal = %d, %d, %v", steal, total, err)
	}
	if _, _, err := parseSteal([]byte("intr 1 2 3\n")); err == nil {
		t.Error("stat without a cpu line parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tfleetd\nVmPeak:\t  900000 kB\nVmHWM:\t   81616 kB\nVmRSS:\t   80000 kB\n"
	if kb, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || kb != 81616 {
		t.Errorf("VmHWM = %v, %v", kb, err)
	}
	if kb, err := parseStatusKB([]byte(status), "VmRSS"); err != nil || kb != 80000 {
		t.Errorf("VmRSS = %v, %v", kb, err)
	}
	if _, err := parseStatusKB([]byte("Name:\tx\n"), "VmHWM"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("VmHWM in unexpected units parsed")
	}
	if mb, err := procStatusMB(os.Getpid(), "VmHWM"); err != nil || mb <= 0 {
		t.Errorf("procStatusMB(self, VmHWM) = %v, %v", mb, err)
	}
}

// TestWindowPeaks checks that the reported peak is the median window's,
// so one window that saw a much larger reading does not move it.
func TestWindowPeaks(t *testing.T) {
	w := windowPeaks{size: 2}
	var closed int
	for _, v := range []float64{10, 12, 11, 40, 9, 10, 7} {
		if w.add(v) {
			closed++
		}
	}
	if closed != 3 || !slices.Equal(w.peaks, []float64{12, 40, 10}) {
		t.Fatalf("2-reading windows closed %d times with peaks %v, want 3 with [12 40 10]", closed, w.peaks)
	}
	if got := w.median(); got != 12 {
		t.Errorf("median of window peaks 12, 40, 10 = %v, want 12", got)
	}
	short := windowPeaks{size: 4}
	short.add(7)
	short.add(5)
	if got := short.median(); got != 7 {
		t.Errorf("run shorter than a window: %v, want its open peak 7", got)
	}
}

// TestAddSelfRSS checks that between runs once per closed window.
func TestAddSelfRSS(t *testing.T) {
	w := windowPeaks{size: 2}
	betweens := 0
	for range 5 {
		if err := addSelfRSS(&w, func() error { betweens++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.peaks) != 2 || betweens != 2 || w.peaks[0] <= 0 {
		t.Errorf("5 reads in 2-read windows: peaks %v, between ran %d times", w.peaks, betweens)
	}
}

// TestGeneratorProjection drives real Sessions, built the way fleetd
// builds its fresh fleet, with the generator's events: every event must
// apply, joins must land on the ids the generator projected, and
// positions and liveness must agree afterwards.
func TestGeneratorProjection(t *testing.T) {
	const m, n, posts = 3, 40, 60
	seed := uint64(9)
	gen := newGenerator(seed, m, n)
	sc := workload.Fleet(m, n, "uniform")
	eng, err := cbtc.New(cbtc.WithMaxRadius(sc.Radius), cbtc.WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*cbtc.Session
	for _, p := range sc.Placements(seed) {
		s, err := eng.NewSession(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	joins, leaves := 0, 0
	next := make([]int, m) // the id fleetd assigns to each net's next join
	for net := range next {
		next[net] = n
	}
	for k := 0; k < posts; k++ {
		for _, ev := range gen.events(ingestEventsPerPost) {
			s := sessions[ev.Net]
			switch ev.Op {
			case "join":
				joins++
				id, _ := s.Join(cbtc.Pt(ev.X, ev.Y))
				if id != next[ev.Net] {
					t.Fatalf("post %d: session assigned id %d, projection %d", k, id, next[ev.Net])
				}
				next[ev.Net]++
			case "leave":
				leaves++
				if _, err := s.Leave(ev.ID); err != nil {
					t.Fatalf("post %d: leave %d rejected: %v", k, ev.ID, err)
				}
			case "move":
				if _, err := s.Move(ev.ID, cbtc.Pt(ev.X, ev.Y)); err != nil {
					t.Fatalf("post %d: move %d rejected: %v", k, ev.ID, err)
				}
			}
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("%d joins, %d leaves: the stream must exercise both", joins, leaves)
	}
	for net, s := range sessions {
		gm := gen.members[net]
		if s.Len() != len(gm.pos) {
			t.Fatalf("net %d: session has %d ids, projection %d", net, s.Len(), len(gm.pos))
		}
		live := 0
		for id := range gm.pos {
			if s.Alive(id) != gm.alive[id] || s.Position(id) != gm.pos[id] {
				t.Fatalf("net %d id %d: session (%v, %v), projection (%v, %v)", net, id, s.Alive(id), s.Position(id), gm.alive[id], gm.pos[id])
			}
			if gm.alive[id] {
				live++
				if gm.live[gm.slot[id]] != id {
					t.Fatalf("net %d: live list slot of %d is stale", net, id)
				}
			}
		}
		if live != len(gm.live) || s.LiveCount() != live {
			t.Fatalf("net %d: %d live ids, live list %d, session %d", net, live, len(gm.live), s.LiveCount())
		}
	}
	// The stream is a pure function of the seed.
	a, b := newGenerator(seed, m, n), newGenerator(seed, m, n)
	if !slices.Equal(body(a.events(50)), body(b.events(50))) {
		t.Error("same seed, different event stream")
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark:", err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	check := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, program prints %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
