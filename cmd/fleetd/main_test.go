package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"testing/iotest"
	"time"

	"cbtc"
	"cbtc/internal/chaos"
	"cbtc/internal/workload"
)

// TestMain doubles as the fleetd entry point for the crash-recovery
// tests: the test binary re-execs itself with FLEETD_CHILD=1 and
// fleetd's own flags, so kill -9 lands on a real daemon process.
func TestMain(m *testing.M) {
	if os.Getenv("FLEETD_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const testScenario = "uniform"

func testEngine(t testing.TB, m, n int) (*cbtc.Engine, workload.FleetScenario) {
	t.Helper()
	sc := workload.Fleet(m, n, testScenario)
	eng, err := cbtc.New(cbtc.WithMaxRadius(sc.Radius), cbtc.WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	return eng, sc
}

// testDaemon builds an in-process daemon the way main does, with an
// optional checkpoint directory enabling the store and write-ahead log.
func testDaemon(t testing.TB, m, n, queueCap int, ckptDir string) *daemon {
	t.Helper()
	eng, sc := testEngine(t, m, n)
	d := &daemon{
		queue:   make(chan queueItem, queueCap),
		kick:    make(chan struct{}, 1),
		tickIvl: 10 * time.Millisecond,
	}
	if ckptDir != "" {
		d.store = &ckptStore{eng: eng, path: filepath.Join(ckptDir, "fleet.ckpt"), gens: 2}
	}
	if err := d.recover(eng, sc, 7); err != nil {
		t.Fatal(err)
	}
	if d.wal != nil {
		t.Cleanup(func() { d.wal.Close() })
	}
	return d
}

func (d *daemon) enqueue(t *testing.T, evs ...wireEvent) {
	t.Helper()
	for _, ev := range evs {
		select {
		case d.queue <- queueItem{ev: ev}:
		default:
			t.Fatal("test queue full")
		}
	}
}

// Join-then-leave-then-move of the same projected id inside one tick:
// the projection must admit the join, honor the leave against the
// projected liveness, and reject the move — exactly mirroring
// Session.ValidateBatch, or the whole tick would be refused.
func TestLiveProjectionSameTickJoinLeaveMove(t *testing.T) {
	d := testDaemon(t, 2, 20, 64, "")
	id := d.fleet.Session(0).Len() // the id the join will mint
	d.enqueue(t,
		wireEvent{Op: "join", Net: 0, X: 1, Y: 1},
		wireEvent{Op: "leave", Net: 0, ID: id},
		wireEvent{Op: "move", Net: 0, ID: id, X: 2, Y: 2},
	)
	d.tickOnce()
	if got := d.applied.Load(); got != 2 {
		t.Errorf("applied %d events, want 2 (join+leave)", got)
	}
	if got := d.rejected.Load(); got != 1 {
		t.Errorf("rejected %d events, want 1 (move of departed node)", got)
	}
	s := d.fleet.Session(0)
	if s.Len() != id+1 || s.Alive(id) {
		t.Errorf("session: Len %d Alive(%d)=%v, want %d and departed", s.Len(), id, s.Alive(id), id+1)
	}
}

// Cross-tick id reuse after a drop: rejected events must leave no
// residue in the projection, so a later tick's join mints the next id
// (never reusing the dropped one) and events on the new id validate
// cleanly against the session.
func TestLiveProjectionCrossTickReuse(t *testing.T) {
	d := testDaemon(t, 2, 20, 64, "")
	s := d.fleet.Session(0)
	base := s.Len()

	d.enqueue(t, wireEvent{Op: "leave", Net: 0, ID: 5})
	d.tickOnce()

	// Tick 2: a move of the departed id is rejected; a join mints id
	// base (not 5); a move of the freshly projected id is accepted.
	d.enqueue(t,
		wireEvent{Op: "move", Net: 0, ID: 5, X: 9, Y: 9},
		wireEvent{Op: "join", Net: 0, X: 3, Y: 3},
		wireEvent{Op: "move", Net: 0, ID: base, X: 4, Y: 4},
	)
	d.tickOnce()
	if got := d.applied.Load(); got != 3 {
		t.Errorf("applied %d events, want 3", got)
	}
	if got := d.rejected.Load(); got != 1 {
		t.Errorf("rejected %d events, want 1", got)
	}
	if s.Alive(5) || !s.Alive(base) || s.Len() != base+1 {
		t.Errorf("session desynced: Alive(5)=%v Alive(%d)=%v Len=%d", s.Alive(5), base, s.Alive(base), s.Len())
	}

	// Tick 3: the projection re-initializes from the session each tick;
	// the new node keeps working.
	d.enqueue(t, wireEvent{Op: "move", Net: 0, ID: base, X: 5, Y: 5})
	d.tickOnce()
	if got := d.applied.Load(); got != 4 {
		t.Errorf("applied %d events after tick 3, want 4", got)
	}
}

// tickDrainOps are the ops FuzzTickDrain draws from: the three the wire
// protocol knows and one it does not.
var tickDrainOps = [4]string{"join", "leave", "move", "hop"}

// decodeTicks turns fuzz bytes into ticks of at most limit wire events
// in all, four bytes an event: the op, with bit 2 opening a new tick; the
// net, −1 to 2; the id, −2 to 29, around a 20-node network's live range
// and the ids its joins mint; and the position's two nibbles, a 16 × 16
// grid over side.
func decodeTicks(data []byte, side float64, limit int) [][]wireEvent {
	var ticks [][]wireEvent
	for k := 0; k < limit && len(data) >= 4; k, data = k+1, data[4:] {
		if len(ticks) == 0 || data[0]&4 != 0 {
			ticks = append(ticks, nil)
		}
		ticks[len(ticks)-1] = append(ticks[len(ticks)-1], wireEvent{
			Op:  tickDrainOps[data[0]&3],
			Net: int(data[1]%4) - 1,
			ID:  int(data[2]%32) - 2,
			X:   float64(data[3]&15) * side / 15,
			Y:   float64(data[3]>>4) * side / 15,
		})
	}
	return ticks
}

// encodeTicks is decodeTicks' inverse for the seed corpus, bar the
// positions, which validation ignores.
func encodeTicks(ticks [][]wireEvent) []byte {
	var b []byte
	for _, tk := range ticks {
		for i, ev := range tk {
			op := byte(slices.Index(tickDrainOps[:], ev.Op))
			if i == 0 {
				op |= 4
			}
			b = append(b, op, byte(ev.Net+1), byte(ev.ID+2), 0)
		}
	}
	return b
}

// FuzzTickDrain puts tick boundaries anywhere in an event stream, as
// event-driven ticks do, and checks the drain-and-validate half of each
// tick. Every drained event is counted once, as accepted or rejected;
// an event is accepted exactly when a restored reference copy of its
// network passes Session.ValidateBatch on the tick's earlier accepted
// events plus this one; and Fleet.TickEvents takes every drained batch.
func FuzzTickDrain(f *testing.F) {
	const m, n, maxEvents = 2, 20, 64
	eng, sc := testEngine(f, m, n)
	fleet, err := freshFleet(eng, sc, 7)
	if err != nil {
		f.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := fleet.Checkpoint(&ckpt); err != nil {
		f.Fatal(err)
	}
	// The event streams of the two projection tests above.
	f.Add(encodeTicks([][]wireEvent{{
		{Op: "join", Net: 0}, {Op: "leave", Net: 0, ID: n}, {Op: "move", Net: 0, ID: n},
	}}))
	f.Add(encodeTicks([][]wireEvent{
		{{Op: "leave", Net: 0, ID: 5}},
		{{Op: "move", Net: 0, ID: 5}, {Op: "join", Net: 0}, {Op: "move", Net: 0, ID: n}},
		{{Op: "move", Net: 0, ID: n}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		restore := func() *cbtc.Fleet {
			fl, err := eng.RestoreFleet(bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return fl
		}
		d := &daemon{fleet: restore(), queue: make(chan queueItem, maxEvents)}
		ref := restore()
		for k, tk := range decodeTicks(data, sc.Side, maxEvents) {
			rejected := d.rejected.Load()
			for _, ev := range tk {
				d.queue <- queueItem{ev: ev}
			}
			got := d.drain()

			want := make([][]cbtc.Event, m)
			wantWires := make([][]wireEvent, m)
			accepted := 0
			for _, ev := range tk {
				if ev.Net < 0 || ev.Net >= m || ev.Op == "hop" {
					continue
				}
				next := append(slices.Clip(want[ev.Net]), toEvent(ev))
				if ref.Session(ev.Net).ValidateBatch(next) != nil {
					continue
				}
				want[ev.Net] = next
				wantWires[ev.Net] = append(wantWires[ev.Net], ev)
				accepted++
			}
			if got.items != len(tk) || got.accepted != accepted || d.rejected.Load()-rejected != int64(len(tk)-accepted) {
				t.Fatalf("tick %d: drained %d of %d events, accepted %d, rejected %d; want %d accepted",
					k, got.items, len(tk), got.accepted, d.rejected.Load()-rejected, accepted)
			}
			if !reflect.DeepEqual(got.batches, want) || !reflect.DeepEqual(got.wires, wantWires) {
				t.Fatalf("tick %d of %v: drained %v, want %v", k, tk, got.wires, wantWires)
			}
			if err := d.fleet.TickEvents(context.Background(), got.batches); err != nil {
				t.Fatalf("tick %d: TickEvents refused a drained batch: %v", k, err)
			}
			if err := ref.TickEvents(context.Background(), want); err != nil {
				t.Fatalf("tick %d: reference: %v", k, err)
			}
		}
	})
}

// An ingestion stream that dies mid-read — an oversized line or an
// I/O failure — must be surfaced and counted, not swallowed: the
// caller has to be able to tell "stream consumed" from "stream died".
func TestReadEventsStreamFailure(t *testing.T) {
	d := testDaemon(t, 1, 10, 64, "")

	huge := strings.Repeat("x", 2<<20)
	res := d.readEvents(strings.NewReader("{\"op\":\"join\",\"net\":0}\n"+huge+"\n"), false)
	if res.scanErr == nil {
		t.Fatal("oversized line: scanErr not surfaced")
	}
	if res.accepted != 1 {
		t.Errorf("events before the oversized line: accepted %d, want 1", res.accepted)
	}
	if got := d.ingestErrs.Load(); got != 1 {
		t.Errorf("ingest_errors %d, want 1", got)
	}

	broken := io.MultiReader(strings.NewReader("{\"op\":\"join\",\"net\":0}\n"), iotest.ErrReader(fmt.Errorf("conn reset")))
	res = d.readEvents(broken, false)
	if res.scanErr == nil || !strings.Contains(res.scanErr.Error(), "conn reset") {
		t.Fatalf("reader failure: scanErr %v", res.scanErr)
	}
	if got := d.ingestErrs.Load(); got != 2 {
		t.Errorf("ingest_errors %d, want 2", got)
	}
}

// POST /events answers 202 only after the accepted events are in the
// write-ahead log and applied; a full queue answers 429 with a
// Retry-After hint.
func TestEventsDurableAckAndRetryAfter(t *testing.T) {
	d := testDaemon(t, 1, 10, 4, t.TempDir())
	srv := httptest.NewServer(d.routes())
	defer srv.Close()

	// Fill the queue with no tick loop draining it: everything posted
	// now is refused, immediately, with a retry hint.
	d.enqueue(t,
		wireEvent{Op: "move", Net: 0, ID: 0, X: 1, Y: 1},
		wireEvent{Op: "move", Net: 0, ID: 1, X: 1, Y: 1},
		wireEvent{Op: "move", Net: 0, ID: 2, X: 1, Y: 1},
		wireEvent{Op: "move", Net: 0, ID: 3, X: 1, Y: 1},
	)
	resp, err := http.Post(srv.URL+"/events", "application/json",
		strings.NewReader("{\"op\":\"move\",\"net\":0,\"id\":4,\"x\":2,\"y\":2}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Drain with a pumped tick loop and post for real: the response may
	// only arrive after the events are fsynced to the log.
	stop := make(chan struct{})
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for {
			select {
			case <-stop:
				return
			default:
				d.tickOnce()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	body := "{\"op\":\"join\",\"net\":0,\"x\":7,\"y\":7}\n{\"op\":\"move\",\"net\":0,\"id\":5,\"x\":8,\"y\":8}\n"
	resp, err = http.Post(srv.URL+"/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]any
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	close(stop)
	<-pumped
	if resp.StatusCode != http.StatusAccepted || ack["accepted"].(float64) != 2 {
		t.Fatalf("post: status %d body %v", resp.StatusCode, ack)
	}
	// The 202 contract: the events are on disk now.
	w, recs, err := openWAL(d.store.path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	logged := 0
	for _, rec := range recs {
		for _, nb := range rec.Nets {
			logged += len(nb.Events)
		}
	}
	// 4 queue-filler moves drained by the pump, plus the 2 acked events.
	if logged != 6 {
		t.Fatalf("write-ahead log holds %d events at ack time, want 6", logged)
	}

	// A malformed stream is a 400 with the failure surfaced.
	resp, err = http.Post(srv.URL+"/events", "application/json",
		strings.NewReader(strings.Repeat("y", 2<<20)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	var bad map[string]any
	json.NewDecoder(resp.Body).Decode(&bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || bad["error"] == nil {
		t.Fatalf("oversized stream: status %d body %v", resp.StatusCode, bad)
	}
}

// The daemon's HTTP server carries its connection timeouts, so a client
// that never finishes its headers or its body, or an idle keep-alive
// connection, cannot hold a connection forever.
func TestServerTimeouts(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.ReadTimeout != readTimeout || readTimeout <= 0 {
		t.Errorf("ReadTimeout %v, want %v > 0", srv.ReadTimeout, readTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	// The read deadline cancels r.Context() when it fires, so it must
	// leave the durable-ack wait of POST /events ample room.
	if readTimeout < 30*time.Second {
		t.Errorf("ReadTimeout %v leaves too little room for a durable ack", readTimeout)
	}
}

// A client trickling a POST /events body is cut off when the server's
// read timeout expires, instead of holding the handler for as long as it
// keeps sending: the body read fails and the stream ends in a 400.
func TestEventsTrickleCutOff(t *testing.T) {
	d := testDaemon(t, 1, 10, 64, "")
	srv := newServer("127.0.0.1:0", d.routes())
	srv.ReadTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() { srv.Close(); <-served }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /events HTTP/1.1\r\nHost: fleetd\r\nContent-Length: 1000000\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// One byte every 10 ms, well under the body cap: only the read
	// timeout can end the request.
	stop := make(chan struct{})
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte{' '}); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-trickled }()

	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a trickled body after %v: %v", time.Since(start), err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trickled body: status %d, want 400", resp.StatusCode)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("trickled body cut off after %v, want about the 200ms read timeout", el)
	}
}

// endlessBody is a request body that never ends: blank-free lines of
// spaces, each a malformed event.
type endlessBody struct{}

func (endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
		if i%(64<<10) == 0 {
			p[i] = '\n'
		}
	}
	return len(p), nil
}

// A POST /events body is cut off at maxEventsBody: a client streaming an
// endless body gets a prompt 400 that reports the event accepted before
// the cap (made durable first, like any accepted event), not a handler
// reading forever.
func TestEventsBodyCap(t *testing.T) {
	d := testDaemon(t, 1, 10, 64, "")
	srv := httptest.NewServer(d.routes())
	defer srv.Close()
	stop := make(chan struct{})
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for {
			select {
			case <-stop:
				return
			default:
				d.tickOnce()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer func() { close(stop); <-pumped }()

	body := io.MultiReader(strings.NewReader("{\"op\":\"join\",\"net\":0,\"x\":7,\"y\":7}\n"), endlessBody{})
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(srv.URL+"/events", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]any
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || ack["error"] == nil {
		t.Fatalf("over-cap body: status %d body %v, want 400 with an error", resp.StatusCode, ack)
	}
	if ack["accepted"] != 1.0 {
		t.Errorf("over-cap body: accepted %v, want 1", ack["accepted"])
	}
	if got := d.applied.Load(); got != 1 {
		t.Errorf("applied %d events, want the 1 accepted before the cap", got)
	}
}

// Checkpoint rotation fsyncs the store's directory after the final
// rename, and a failed directory sync fails the write.
func TestCheckpointSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	d := testDaemon(t, 1, 10, 16, dir)
	path := d.store.path
	calls := stubSyncDir(t, func(synced string) {
		if synced != dir {
			t.Errorf("synced %s, want the checkpoint directory %s", synced, dir)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("directory synced before the final rename: temp file stat %v", err)
		}
		for _, p := range []string{path, d.store.gen(1)} {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("directory synced before rotation finished: %v", err)
			}
		}
	}, nil)
	if err := d.store.Write(d.fleet); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("checkpoint synced the directory %d times, want 1", *calls)
	}

	errSync := errors.New("injected directory sync failure")
	stubSyncDir(t, func(string) {}, errSync)
	if err := d.store.Write(d.fleet); !errors.Is(err, errSync) {
		t.Fatalf("checkpoint with a failing directory sync: got %v, want %v", err, errSync)
	}
}

// Injected checkpoint-write failures surface in /healthz as degraded
// status with a failure count, and clear on the next success.
func TestCheckpointFaultDegradesHealth(t *testing.T) {
	d := testDaemon(t, 1, 10, 16, t.TempDir())
	srv := httptest.NewServer(d.routes())
	defer srv.Close()

	inj := chaos.New(chaos.Faults{Seed: 1, CheckpointFail: 1})
	ckptFaultHook = func(seq uint64) error {
		if inj.FailCheckpoint(seq) {
			return fmt.Errorf("chaos: injected checkpoint failure %d", seq)
		}
		return nil
	}
	defer func() { ckptFaultHook = nil }()

	if err := d.writeCheckpoint(); err == nil {
		t.Fatal("injected checkpoint failure did not fail the write")
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h["status"] != "degraded" {
		t.Fatalf("healthz under checkpoint failure: status %d body %v", resp.StatusCode, h)
	}
	if h["checkpoint_failures"].(float64) < 1 {
		t.Errorf("checkpoint_failures = %v, want >= 1", h["checkpoint_failures"])
	}
	if h["last_checkpoint_age_ms"].(float64) < 0 {
		t.Errorf("last_checkpoint_age_ms = %v, want >= 0 (recovery checkpointed)", h["last_checkpoint_age_ms"])
	}

	ckptFaultHook = nil
	if err := d.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz after recovery: status %d body %v", resp.StatusCode, h)
	}
}

// A checkpoint that fails verification is never committed: a fleet
// built under another engine encodes a fingerprint the store's engine
// refuses, so the write fails with ErrConfigMismatch and leaves every
// generation and no temp file behind.
func TestCheckpointWriteVerifies(t *testing.T) {
	dir := t.TempDir()
	d := testDaemon(t, 2, 20, 64, dir)
	for range 2 { // with recovery's, one checkpoint per generation
		if err := d.writeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[string][]byte)
	for i := 0; i <= d.store.gens; i++ {
		data, err := os.ReadFile(d.store.gen(i))
		if err != nil {
			t.Fatal(err)
		}
		before[d.store.gen(i)] = data
	}
	eng, sc := testEngine(t, 2, 20)
	other, err := cbtc.New(cbtc.WithMaxRadius(sc.Radius/2), cbtc.WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := freshFleet(other, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	store := &ckptStore{eng: eng, path: d.store.path, gens: d.store.gens}
	if err := store.Write(foreign); !errors.Is(err, cbtc.ErrConfigMismatch) {
		t.Fatalf("write of a checkpoint the store's engine refuses: got %v, want ErrConfigMismatch", err)
	}
	for path, want := range before {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed by a refused write (err %v)", path, err)
		}
	}
	if _, err := os.Stat(d.store.path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("a refused write left a temp file: stat %v", err)
	}
}

// With two older generations kept, a corrupt oldest generation is
// skipped: oldestWatermarks returns the next generation's clocks, the
// ones RestoreFleet reads from that file. After a restart, recovery's
// compaction keeps exactly the logged records that generation does not
// cover.
func TestOldestWatermarksSkipCorruptGeneration(t *testing.T) {
	dir := t.TempDir()
	d := testDaemon(t, 2, 20, 64, dir)
	// Four ticks and three checkpoints: member 0 moves every tick and
	// member 1 every other one, so the generations' clocks differ per
	// member.
	var clocks []cbtc.FleetWatermarks
	for k := 1; k <= 4; k++ {
		evs := []wireEvent{{Op: "move", Net: 0, ID: k, X: 100, Y: float64(100 * k)}}
		if k%2 == 0 {
			evs = append(evs, wireEvent{Op: "move", Net: 1, ID: k, X: 200, Y: float64(100 * k)})
		}
		d.enqueue(t, evs...)
		d.tickOnce()
		if k == 4 {
			break // the last tick is logged but not checkpointed
		}
		if err := d.writeCheckpoint(); err != nil {
			t.Fatal(err)
		}
		clocks = append(clocks, d.fleet.Watermarks())
	}
	oldest, next := d.store.gen(2), d.store.gen(1)
	data, err := os.ReadFile(oldest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(next)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := d.store.eng.RestoreFleet(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := restored.Watermarks()
	if !reflect.DeepEqual(want, clocks[1]) {
		t.Fatalf("%s restores clocks %+v, want the second checkpoint's %+v", next, want, clocks[1])
	}
	wm, ok := d.store.oldestWatermarks()
	if !ok || !reflect.DeepEqual(wm, want) {
		t.Fatalf("oldestWatermarks with %s corrupt: %+v (ok %v), want %s's %+v", oldest, wm, ok, next, want)
	}

	// Restart. Recovery restores the newest generation, replays the last
	// tick, checkpoints (the rotation moves the next generation into the
	// oldest slot) and compacts the log by the oldest generation's clocks.
	logged, recs, err := openWAL(d.store.path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	logged.Close()
	d.wal.Close()
	d = testDaemon(t, 2, 20, 64, dir)
	var kept []walRecord
	for _, rec := range recs {
		for _, nb := range rec.Nets {
			if nb.Tick > want.Members[nb.Net].Ticks {
				kept = append(kept, rec)
				break
			}
		}
	}
	if len(recs) != 4 || len(kept) != 2 {
		t.Fatalf("the log held %d records, %d past the next generation; want 4 and 2", len(recs), len(kept))
	}
	compacted, got, err := openWAL(d.store.path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	compacted.Close()
	if !reflect.DeepEqual(got, kept) {
		t.Fatalf("compacted log %+v, want the records past the next generation %+v", got, kept)
	}
}

// A fresh boot verifies its only checkpoint once: the write that
// commits it keeps the clocks verification returned, and recovery's
// compaction reads them back through oldestWatermarks without opening
// the file, so a generation damaged after the write still yields them.
// Once an older generation is on disk, oldestWatermarks opens and
// verifies it as before.
func TestOldestWatermarksReuseCommittedClocks(t *testing.T) {
	d := testDaemon(t, 2, 20, 64, t.TempDir())
	boot := d.fleet.Watermarks()
	for i := 1; i <= d.store.gens; i++ {
		if _, err := os.Stat(d.store.gen(i)); !os.IsNotExist(err) {
			t.Fatalf("a fresh boot left generation %d: stat %v", i, err)
		}
	}
	if c := d.store.committed; c == nil || !reflect.DeepEqual(*c, boot) {
		t.Fatalf("the boot's checkpoint committed clocks %+v, want the fleet's %+v", c, boot)
	}
	data, err := os.ReadFile(d.store.path)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("not a checkpoint")
	if err := os.WriteFile(d.store.path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if wm, ok := d.store.oldestWatermarks(); !ok || !reflect.DeepEqual(wm, boot) {
		t.Fatalf("oldestWatermarks over a damaged only generation: %+v (ok %v), want the committed %+v", wm, ok, boot)
	}
	if err := os.WriteFile(d.store.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A tick and a checkpoint later the boot's checkpoint is generation 1.
	// oldestWatermarks reads its clocks from the file; damaged, it falls
	// through to the newest generation's committed clocks.
	d.enqueue(t, wireEvent{Op: "move", Net: 0, ID: 1, X: 100, Y: 100})
	d.tickOnce()
	if err := d.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	now := d.fleet.Watermarks()
	if reflect.DeepEqual(now, boot) {
		t.Fatal("the tick left the clocks where the boot checkpoint had them")
	}
	if wm, ok := d.store.oldestWatermarks(); !ok || !reflect.DeepEqual(wm, boot) {
		t.Fatalf("oldestWatermarks: %+v (ok %v), want %s's %+v", wm, ok, d.store.gen(1), boot)
	}
	if err := os.WriteFile(d.store.gen(1), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if wm, ok := d.store.oldestWatermarks(); !ok || !reflect.DeepEqual(wm, now) {
		t.Fatalf("oldestWatermarks with %s damaged: %+v (ok %v), want the newest %+v", d.store.gen(1), wm, ok, now)
	}
}

// A checkpoint write collects its own transient state (the encoded
// fleet and the state decoded back from it for verification) before it
// returns, so the next heap goal is sized from the live fleet alone.
func TestCheckpointCollectsTransientState(t *testing.T) {
	d := testDaemon(t, 2, 50, 16, t.TempDir())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if after.NumForcedGC == before.NumForcedGC {
		t.Fatal("writeCheckpoint returned without a collection")
	}
}

// A member panicking mid-tick quarantines that member only: the daemon
// keeps serving, /healthz turns degraded, later events to the casualty
// are rejected, healthy members keep applying, and checkpoints are
// refused (the log keeps covering the gap).
func TestDaemonQuarantineDegraded(t *testing.T) {
	d := testDaemon(t, 2, 20, 64, t.TempDir())
	srv := httptest.NewServer(d.routes())
	defer srv.Close()

	d.fleet.SetTickHook(func(net, tick int) {
		if net == 0 {
			panic("chaos: boom")
		}
	})
	d.enqueue(t, wireEvent{Op: "move", Net: 0, ID: 1, X: 5, Y: 5})
	d.tickOnce()
	d.fleet.SetTickHook(nil)

	if h := d.fleet.Health(); h.Quarantined != 1 {
		t.Fatalf("quarantined %d members, want 1", h.Quarantined)
	}
	if got := d.applied.Load(); got != 0 {
		t.Errorf("casualty's events counted as applied: %d", got)
	}

	// The casualty rejects traffic; the healthy member keeps going.
	d.enqueue(t,
		wireEvent{Op: "move", Net: 0, ID: 2, X: 6, Y: 6},
		wireEvent{Op: "move", Net: 1, ID: 2, X: 6, Y: 6},
	)
	d.tickOnce()
	if got, rej := d.applied.Load(), d.rejected.Load(); got != 1 || rej != 1 {
		t.Errorf("after quarantine: applied %d rejected %d, want 1 and 1", got, rej)
	}

	if err := d.writeCheckpoint(); err == nil {
		t.Error("checkpoint under quarantine did not fail")
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h["quarantined"].(float64) != 1 {
		t.Fatalf("healthz under quarantine: status %d body %v", resp.StatusCode, h)
	}
	rep, err := d.fleet.Report()
	if err != nil || rep.Quarantined != 1 {
		t.Fatalf("report: quarantined %d err %v", rep.Quarantined, err)
	}
}

// --- the event-driven tick loop ---

// runLoop runs the daemon's real tick loop until the test ends.
func runLoop(tb testing.TB, d *daemon) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.loop(ctx, 0)
	}()
	tb.Cleanup(func() { cancel(); <-done })
}

// serve runs the tick loop and serves d's routes until the test ends.
// Cleanups run last in, first out, so the server closes, answering the
// requests in flight, before the loop stops.
func serve(tb testing.TB, d *daemon) *httptest.Server {
	runLoop(tb, d)
	srv := httptest.NewServer(d.routes())
	tb.Cleanup(srv.Close)
	return srv
}

func moveLine(net, id int) string {
	return fmt.Sprintf("{\"op\":\"move\",\"net\":%d,\"id\":%d,\"x\":%d,\"y\":%d}\n", net, id, 10+id, 20+id)
}

// A post is applied as soon as it is complete, not at the next beat of a
// clock: under a one-hour -tick, a 3-event POST is acked within seconds
// and /healthz counts its events applied.
func TestPostAckedWithoutTickWait(t *testing.T) {
	d := testDaemon(t, 2, 20, 64, t.TempDir())
	d.tickIvl = time.Hour
	srv := serve(t, d)
	client := &http.Client{Timeout: 5 * time.Second}
	body := moveLine(0, 1) + "{\"op\":\"leave\",\"net\":1,\"id\":2}\n{\"op\":\"join\",\"net\":1,\"x\":9,\"y\":9}\n"
	resp, err := client.Post(srv.URL+"/events", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /events under a 1 h tick: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	resp, err = client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h["applied"] != 3.0 {
		t.Errorf("healthz applied %v, want 3", h["applied"])
	}
}

// Under load, ticks stay -tick apart and coalesce: three clients posting
// back to back all get their 202s, the daemon ticks at most once per
// interval after its leading tick, and every tick that applied events
// wrote exactly one write-ahead log record.
func TestTicksSpacedUnderLoad(t *testing.T) {
	const (
		clients = 3
		posts   = 4
		ivl     = 100 * time.Millisecond
	)
	d := testDaemon(t, 1, 30, 64, t.TempDir())
	d.tickIvl = ivl
	start := time.Now()
	srv := serve(t, d)
	client := &http.Client{Timeout: 10 * time.Second}
	errs := make(chan error, clients*posts)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range posts {
				id := c*posts + k
				resp, err := client.Post(srv.URL+"/events", "application/x-ndjson", strings.NewReader(moveLine(0, id)+moveLine(0, id+15)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("client %d post %d: status %d", c, k, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ticks := d.ticks.Load()
	elapsed := time.Since(start)
	if limit := 1 + int64(math.Ceil(float64(elapsed)/float64(ivl))); ticks > limit {
		t.Errorf("%d ticks in %v, want at most %d at one per %v", ticks, elapsed, limit, ivl)
	}
	if got := d.applied.Load(); got != 2*clients*posts {
		t.Errorf("applied %d events, want %d", got, 2*clients*posts)
	}
	w, recs, err := openWAL(d.store.path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Every post targets network 0, so each tick that applied events
	// advanced its clock by one.
	if applying := d.fleet.Watermarks().Members[0].Ticks; len(recs) != applying || int64(applying) > ticks {
		t.Errorf("%d log records for %d ticks that applied events (%d ticks in all)", len(recs), applying, ticks)
	}
}

// A post that overflows the queue is still answered promptly: its
// waiter wakes the loop before blocking on the full queue, so the 429
// arrives within a tick or two, the events that fit are applied, and
// the next post is acked.
func TestFullQueueStillAcks(t *testing.T) {
	const events = 20
	d := testDaemon(t, 1, 30, 8, t.TempDir())
	d.tickIvl = 100 * time.Millisecond
	srv := serve(t, d)
	client := &http.Client{Timeout: time.Second}
	var body strings.Builder
	for id := range events {
		body.WriteString(moveLine(0, id))
	}
	resp, err := client.Post(srv.URL+"/events", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatalf("%d-event post into a queue of 8: %v", events, err)
	}
	var ack map[string]any
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	accepted, _ := ack["accepted"].(float64)
	if resp.StatusCode != http.StatusTooManyRequests || accepted < 1 || accepted+ack["dropped"].(float64) != events {
		t.Fatalf("overflowing post: status %d body %v, want 429 with accepted + dropped = %d", resp.StatusCode, ack, events)
	}
	if got := d.applied.Load(); float64(got) != accepted {
		t.Errorf("applied %d events, want the %v accepted", got, accepted)
	}
	resp, err = client.Post(srv.URL+"/events", "application/x-ndjson", strings.NewReader(moveLine(0, 25)))
	if err != nil {
		t.Fatalf("post after the overflow: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post after the overflow: status %d, want 202", resp.StatusCode)
	}
}

// Events read from stdin queue no durability waiter, so each one wakes
// the loop itself: a stream longer than the queue is applied in full
// behind blocking backpressure, its tail included.
func TestStdinEventsApplied(t *testing.T) {
	const events = 40
	d := testDaemon(t, 1, 30, 8, "")
	d.tickIvl = 20 * time.Millisecond
	runLoop(t, d)
	var in strings.Builder
	for k := range events {
		in.WriteString(moveLine(0, k%30))
	}
	if res := d.readEvents(strings.NewReader(in.String()), true); res.accepted != events {
		t.Fatalf("stdin: accepted %d of %d events", res.accepted, events)
	}
	deadline := time.Now().Add(time.Second)
	for d.applied.Load() < events && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := d.applied.Load(); got != events {
		t.Fatalf("applied %d of %d stdin events within 1 s", got, events)
	}
}

// --- crash-kill recovery ---

// refReport plays evs through a fresh in-process fleet one event per
// tick and reports. Batched application is pinned equivalent to
// sequential application, so the daemon's final Live/Edges/Events —
// whatever tick grouping its timing produced — must match this
// reference exactly.
func refReport(t *testing.T, m, n int, seed uint64, evs []wireEvent) *cbtc.FleetReport {
	t.Helper()
	eng, sc := testEngine(t, m, n)
	fleet, err := freshFleet(eng, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		batches := make([][]cbtc.Event, fleet.Size())
		batches[ev.Net] = []cbtc.Event{toEvent(ev)}
		if err := fleet.TickEvents(context.Background(), batches); err != nil {
			t.Fatalf("reference apply %+v: %v", ev, err)
		}
	}
	rep, err := fleet.Report()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// compareReports checks the grouping-independent state: totals and
// per-member final topology. Ticks, Series and Sched legitimately
// differ (the daemon coalesces events by arrival timing).
func compareReports(t *testing.T, stage string, got, want *cbtc.FleetReport) {
	t.Helper()
	if got.Live != want.Live || got.Edges != want.Edges || got.Events != want.Events || got.Preserved != want.Preserved {
		t.Errorf("%s: fleet Live/Edges/Events/Preserved = %d/%d/%d/%d, want %d/%d/%d/%d", stage,
			got.Live, got.Edges, got.Events, got.Preserved, want.Live, want.Edges, want.Events, want.Preserved)
	}
	for i := range want.PerNetwork {
		g, w := got.PerNetwork[i], want.PerNetwork[i]
		if g.Events != w.Events || g.Final != w.Final || g.Preserved != w.Preserved {
			t.Errorf("%s: network %d: Events/Final/Preserved = %d/%+v/%v, want %d/%+v/%v", stage,
				i, g.Events, g.Final, g.Preserved, w.Events, w.Final, w.Preserved)
		}
	}
}

type child struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

func startFleetd(t *testing.T, addr string, args ...string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FLEETD_CHILD=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, out: &out}
	t.Cleanup(func() { c.cmd.Process.Kill(); c.cmd.Wait() })
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return c
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("fleetd did not come up on %s; output:\n%s", addr, out.String())
	return nil
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func postEvents(t *testing.T, addr string, evs []wireEvent) {
	t.Helper()
	var body strings.Builder
	for _, ev := range evs {
		b, _ := json.Marshal(ev)
		body.Write(b)
		body.WriteByte('\n')
	}
	resp, err := http.Post("http://"+addr+"/events", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /events: status %d: %s", resp.StatusCode, msg)
	}
}

func getReport(t *testing.T, addr string) *cbtc.FleetReport {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep cbtc.FleetReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestCrashRecovery is the end-to-end durability matrix: every event
// acknowledged with 202 must survive kill -9 — first via plain
// write-ahead-log replay, then with the newest checkpoint generation
// corrupted so recovery must fall back a generation and replay the
// log across the gap, and finally across a clean shutdown.
func TestCrashRecovery(t *testing.T) {
	const (
		m    = 2
		n    = 30
		seed = 11
	)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	addr := freeAddr(t)
	args := []string{
		"-checkpoint", ckpt, "-http", addr, "-tick", "5ms",
		"-checkpoint-interval", "0", "-generations", "2",
		"-m", fmt.Sprint(m), "-n", fmt.Sprint(n), "-kind", testScenario, "-seed", fmt.Sprint(seed),
	}

	batchA := []wireEvent{
		{Op: "join", Net: 0, X: 10, Y: 10},
		{Op: "join", Net: 0, X: 200, Y: 40},
		{Op: "move", Net: 0, ID: 3, X: 55, Y: 60},
		{Op: "leave", Net: 0, ID: 7},
		{Op: "move", Net: 1, ID: 0, X: 80, Y: 80},
		{Op: "join", Net: 1, X: 120, Y: 33},
		{Op: "leave", Net: 1, ID: 12},
	}
	batchB := []wireEvent{
		{Op: "move", Net: 0, ID: n, X: 15, Y: 15}, // the node batchA joined
		{Op: "leave", Net: 0, ID: n + 1},
		{Op: "join", Net: 1, X: 44, Y: 44},
		{Op: "move", Net: 1, ID: n, X: 90, Y: 90},
		{Op: "leave", Net: 1, ID: 4},
		{Op: "join", Net: 0, X: 66, Y: 66},
	}

	// Run 1: fresh fleet; ack batch A; kill -9 before any checkpoint of
	// the new state exists (interval checkpoints are off).
	c := startFleetd(t, addr, args...)
	postEvents(t, addr, batchA)
	c.cmd.Process.Kill()
	c.cmd.Wait()

	// Run 2: recovery = restore + log replay. The report must already
	// equal the uninterrupted reference over batch A.
	c = startFleetd(t, addr, args...)
	compareReports(t, "after replay of A", getReport(t, addr), refReport(t, m, n, seed, batchA))
	postEvents(t, addr, batchB)
	c.cmd.Process.Kill()
	c.cmd.Wait()

	// Corrupt the newest checkpoint generation (written during run 2's
	// recovery — it covers batch A). Recovery must detect it, fall back
	// to the older generation, and replay the whole log across the gap.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	chaos.FlipByte(5, data)
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Run 3: generation fallback + full replay. Zero acked-event loss.
	c = startFleetd(t, addr, args...)
	wantAB := refReport(t, m, n, seed, append(append([]wireEvent{}, batchA...), batchB...))
	compareReports(t, "after fallback+replay of A+B", getReport(t, addr), wantAB)

	// Clean shutdown, then one more start: state still intact.
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("clean shutdown: %v; output:\n%s", err, c.out.String())
	}
	c = startFleetd(t, addr, args...)
	compareReports(t, "after clean restart", getReport(t, addr), wantAB)
	c.cmd.Process.Signal(syscall.SIGTERM)
	c.cmd.Wait()
}

// A post whose body is still arriving when SIGTERM lands gets its 202:
// the daemon shuts its HTTP server down first, ticking for the request
// in flight, and only then runs its final tick and checkpoint. The
// events survive into the restarted daemon, and the shutdown takes far
// less than the server's 5 s shutdown bound.
func TestShutdownAcksPostInFlight(t *testing.T) {
	const (
		m    = 1
		n    = 30
		seed = 5
	)
	addr := freeAddr(t)
	args := []string{
		"-checkpoint", filepath.Join(t.TempDir(), "fleet.ckpt"), "-http", addr, "-tick", "5ms",
		"-checkpoint-interval", "0", "-m", fmt.Sprint(m), "-n", fmt.Sprint(n), "-kind", testScenario, "-seed", fmt.Sprint(seed),
	}
	evs := []wireEvent{
		{Op: "move", Net: 0, ID: 3, X: 55, Y: 60},
		{Op: "leave", Net: 0, ID: 7},
		{Op: "join", Net: 0, X: 120, Y: 33},
	}
	var body bytes.Buffer
	for _, ev := range evs {
		b, _ := json.Marshal(ev)
		body.Write(b)
		body.WriteByte('\n')
	}
	half := body.Len() / 2

	c := startFleetd(t, addr, args...)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /events HTTP/1.1\r\nHost: fleetd\r\nContent-Length: %d\r\n\r\n%s", body.Len(), body.Bytes()[:half]); err != nil {
		t.Fatal(err)
	}
	// Give the server time to accept the connection and start reading the
	// body; nothing outside the daemon can observe that it has.
	time.Sleep(100 * time.Millisecond)
	signalled := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The daemon has acted on the signal once its listener is closed.
	for {
		probe, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		probe.Close()
		if time.Since(signalled) > 5*time.Second {
			t.Fatal("listener still open 5 s after SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := conn.Write(body.Bytes()[half:]); err != nil {
		t.Fatalf("finishing the body after SIGTERM: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		c.cmd.Wait() // the output buffer is safe to read once the child is gone
		t.Fatalf("no response to a post in flight at SIGTERM: %v; output:\n%s", err, c.out.String())
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post in flight at SIGTERM: status %d, want 202", resp.StatusCode)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("shutdown: %v; output:\n%s", err, c.out.String())
	}
	if el := time.Since(signalled); el > 3*time.Second {
		t.Errorf("exit %v after SIGTERM, want well under the 5 s shutdown bound", el)
	}

	c = startFleetd(t, addr, args...)
	compareReports(t, "after restart", getReport(t, addr), refReport(t, m, n, seed, evs))
	c.cmd.Process.Signal(syscall.SIGTERM)
	c.cmd.Wait()
}

// BenchmarkDurableAck times POST /events to its 202 on a daemon set up
// as perfbench's fleetd-ingest workload runs fleetd: 8 × 1000 uniform
// members with shrink-back, the checkpoint store and write-ahead log on
// disk, a 5 ms -tick and the real tick loop. Each op posts 16 moves,
// each shifting a node by at most the workload's drift of R/8, and
// waits for the ack. Between ops the timer stops for one to two ticks,
// so each post, like fleetd-ingest's, arrives at a random phase with
// the daemon idle. ticks/op reads the daemon's tick counter.
func BenchmarkDurableAck(b *testing.B) {
	const m, n, perPost = 8, 1000, 16
	// The daemon's log lines would split the result line that go test
	// prints around the run.
	log.SetOutput(io.Discard)
	b.Cleanup(func() { log.SetOutput(os.Stderr) })
	d := testDaemon(b, m, n, 4096, b.TempDir())
	d.tickIvl = 5 * time.Millisecond
	srv := serve(b, d)
	sc := workload.Fleet(m, n, testScenario)
	rng := rand.New(rand.NewPCG(1, 2))
	pos := make([][]cbtc.Point, m)
	for i := range pos {
		for id := range n {
			pos[i] = append(pos[i], d.fleet.Session(i).Position(id))
		}
	}
	drift := func(v float64) float64 { return max(0, min(v+(rng.Float64()*2-1)*sc.Jitter, sc.Side)) }
	bodies := make([][]byte, b.N)
	pauses := make([]time.Duration, b.N)
	for k := range bodies {
		var body bytes.Buffer
		for range perPost {
			net, id := rng.IntN(m), rng.IntN(n)
			p := &pos[net][id]
			p.X, p.Y = drift(p.X), drift(p.Y)
			fmt.Fprintf(&body, "{\"op\":\"move\",\"net\":%d,\"id\":%d,\"x\":%g,\"y\":%g}\n", net, id, p.X, p.Y)
		}
		bodies[k] = body.Bytes()
		pauses[k] = d.tickIvl + time.Duration(rng.Int64N(int64(d.tickIvl)))
	}
	client := srv.Client()
	ticks := d.ticks.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for k, body := range bodies {
		resp, err := client.Post(srv.URL+"/events", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("post %d: status %d", k, resp.StatusCode)
		}
		b.StopTimer()
		time.Sleep(pauses[k])
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(d.ticks.Load()-ticks)/float64(b.N), "ticks/op")
}
