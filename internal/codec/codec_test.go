package codec

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/stats"
)

func testConfig() EngineConfig {
	return EngineConfig{
		Alpha:            2.618,
		MaxRadius:        500,
		PathLossExponent: 2,
		ShrinkBack:       true,
		ScheduleFactor:   1.5,
		RefLoss:          1,
	}
}

// validSession builds a small consistent session state: four nodes,
// node 3 departed (an empty row), a 0–1–2 path topology.
func validSession() *SessionState {
	row := func(ids ...int) []core.Discovery {
		out := make([]core.Discovery, 0, len(ids))
		for _, id := range ids {
			out = append(out, core.Discovery{ID: id, Dist: 100 + float64(id), Dir: 0.5 * float64(id), Power: 40 + float64(id)})
		}
		return out
	}
	return &SessionState{
		Config: testConfig(),
		Pos:    []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 50, Y: 50}},
		Alive:  []bool{true, true, true, false},
		Nodes: []core.NodeResult{
			{Neighbors: row(1), GrowPower: 41, Boundary: false},
			{Neighbors: row(0, 2), GrowPower: 42, Boundary: true},
			{Neighbors: row(1), GrowPower: 43, Boundary: false},
			{Neighbors: row()},
		},
		Stats: SessionCounters{Joins: 1, Leaves: 2, Moves: 3, AngleChanges: 4, Regrows: 5, Repairs: 6},
	}
}

// v3Golden reads a version-3 golden checkpoint from the root package's
// testdata. The fleet one's shrink-back members carry the graph section
// the decoder skips.
func v3Golden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func validFleet(t testing.TB) *FleetState {
	rng1, err := rand.NewPCG(1, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rng2, err := rand.NewPCG(3, 4).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stream := func(c int64, mean float64) stats.Stream {
		return stats.Stream{Count: c, Mean: mean, M2: 0.25, MinV: mean - 1, MaxV: mean + 1}
	}
	// Member 1 is heterogeneous: its own fingerprint, protocol-built,
	// weight 3, and a clock lagging its target (ragged checkpoint).
	altConfig := testConfig()
	altConfig.Alpha = 2.0944
	altSession := *validSession()
	altSession.Config = altConfig
	return &FleetState{
		Config: testConfig(),
		Nets: []NetworkState{
			{Config: testConfig(), Kind: 0, Weight: 1, RNG: rng1, Done: 7, Target: 7, Events: 12, Degree: stream(7, 4), Radius: stream(7, 300), Components: stream(7, 1), Energy: stream(7, 9e5), Session: *validSession()},
			{Config: altConfig, Kind: 1, Weight: 3, RNG: rng2, Done: 7, Target: 9, Events: 9, Degree: stream(7, 5), Radius: stream(7, 280), Components: stream(7, 2), Energy: stream(7, 8e5), Session: altSession},
		},
	}
}

// requireSessionEqual compares decoded state against the original.
func requireSessionEqual(t *testing.T, want, got *SessionState) {
	t.Helper()
	if got.Config != want.Config {
		t.Fatalf("config %+v != %+v", got.Config, want.Config)
	}
	if !reflect.DeepEqual(got.Pos, want.Pos) || !reflect.DeepEqual(got.Alive, want.Alive) {
		t.Fatal("positions/liveness differ")
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("nodes differ:\n%+v\n%+v", got.Nodes, want.Nodes)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v != %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Battery, want.Battery) {
		t.Fatal("batteries differ")
	}
}

func encodeSession(t testing.TB, st *SessionState) []byte {
	var buf bytes.Buffer
	if err := EncodeSession(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeFleet(t testing.TB, st *FleetState) []byte {
	var buf bytes.Buffer
	if err := EncodeFleet(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSessionRoundTrip(t *testing.T) {
	for _, battery := range [][]float64{nil, {5, 0, 2.5, 1}} {
		want := validSession()
		want.Battery = battery
		got, err := DecodeSession(bytes.NewReader(encodeSession(t, want)))
		if err != nil {
			t.Fatalf("battery %v: %v", battery, err)
		}
		requireSessionEqual(t, want, got)
	}
}

func TestFleetRoundTrip(t *testing.T) {
	want := validFleet(t)
	got, err := DecodeFleet(bytes.NewReader(encodeFleet(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != want.Config || len(got.Nets) != len(want.Nets) {
		t.Fatalf("fleet header differs: %+v", got)
	}
	for i := range want.Nets {
		w, g := &want.Nets[i], &got.Nets[i]
		if g.Config != w.Config || g.Kind != w.Kind || g.Weight != w.Weight {
			t.Fatalf("net %d member spec differs: %+v", i, g)
		}
		if !bytes.Equal(w.RNG, g.RNG) || w.Done != g.Done || w.Target != g.Target || w.Events != g.Events {
			t.Fatalf("net %d counters differ", i)
		}
		if w.Degree != g.Degree || w.Radius != g.Radius || w.Components != g.Components || w.Energy != g.Energy {
			t.Fatalf("net %d streams differ", i)
		}
		requireSessionEqual(t, &w.Session, &g.Session)
	}
}

// goldenStride thins the sweeps over the 31 kB version-3 fleet golden,
// which decode the whole stream once per position. It is coprime with
// every field width (1, 4, 8 and the 28-byte discovery entry), so the
// sweep still lands on every byte position of every kind of field.
const goldenStride = 11

// TestDecodeTruncation: every strict prefix of a valid checkpoint is an
// error (usually ErrCorrupt; header prefixes report ErrBadMagic), and
// never a panic. Prefixes of the version-3 fleet golden also end inside
// its skipped graph sections.
func TestDecodeTruncation(t *testing.T) {
	enc := encodeSession(t, validSession())
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeSession(bytes.NewReader(enc[:i])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
	fenc := encodeFleet(t, validFleet(t))
	for i := 0; i < len(fenc); i++ {
		if _, err := DecodeFleet(bytes.NewReader(fenc[:i])); err == nil {
			t.Fatalf("fleet prefix of %d/%d bytes decoded without error", i, len(fenc))
		}
	}
	golden := v3Golden(t, "fleet-v3.ckpt")
	for i := 0; i < len(golden); i += goldenStride {
		if _, err := DecodeFleet(bytes.NewReader(golden[:i])); err == nil {
			t.Fatalf("v3 fleet golden prefix of %d/%d bytes decoded without error", i, len(golden))
		}
	}
}

// TestDecodeBitFlips flips every byte of a valid checkpoint one at a
// time: each mutation must either decode cleanly (benign field change)
// or fail with one of the four typed errors — never panic, never
// return an untyped error.
func TestDecodeBitFlips(t *testing.T) {
	typed := func(err error) bool {
		return err == nil || errors.Is(err, ErrBadMagic) || errors.Is(err, ErrVersion) ||
			errors.Is(err, ErrWrongKind) || errors.Is(err, ErrCorrupt)
	}
	enc := encodeSession(t, validSession())
	mut := make([]byte, len(enc))
	for i := 0; i < len(enc); i++ {
		copy(mut, enc)
		mut[i] ^= 0xff
		if _, err := DecodeSession(bytes.NewReader(mut)); !typed(err) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
	golden := v3Golden(t, "fleet-v3.ckpt")
	mut = make([]byte, len(golden))
	for i := 0; i < len(golden); i += goldenStride {
		copy(mut, golden)
		mut[i] ^= 0xff
		if _, err := DecodeFleet(bytes.NewReader(mut)); !typed(err) {
			t.Fatalf("v3 fleet golden flip at byte %d: untyped error %v", i, err)
		}
	}
}

// fingerprintBytes is the encoded size of a version-4 EngineConfig.
const fingerprintBytes = 3*8 + 3 + 1 + 2*8 + 1 + 4*8

func TestDecodeHeaderErrors(t *testing.T) {
	enc := encodeSession(t, validSession())

	bad := bytes.Clone(enc)
	bad[0] = 'X'
	if _, err := DecodeSession(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: got %v", err)
	}
	bad = bytes.Clone(enc)
	bad[4] = 0xfe // version low byte
	if _, err := DecodeSession(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
		t.Errorf("version: got %v", err)
	}
	for _, v := range []byte{2, 5} { // only versions 3 and 4 are read
		bad[4] = v
		if _, err := DecodeSession(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: got %v", v, err)
		}
	}

	// Version 3 decodes, its graph sections skipped (the root package's
	// TestCheckpointFixtures checks what it decodes to).
	sv3 := v3Golden(t, "session-v3.ckpt")
	if _, err := DecodeSession(bytes.NewReader(sv3)); err != nil {
		t.Errorf("version 3 session: %v", err)
	}
	if _, err := DecodeFleet(bytes.NewReader(v3Golden(t, "fleet-v3.ckpt"))); err != nil {
		t.Errorf("version 3 fleet: %v", err)
	}
	// Version 3's reserved non-contributing flag follows the three
	// optimization flags; a stream that sets it is corrupt.
	bad = bytes.Clone(sv3)
	bad[7+3*8+3] = 1
	if _, err := DecodeSession(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version 3 non-contributing flag: got %v", err)
	}

	if _, err := DecodeFleet(bytes.NewReader(enc)); !errors.Is(err, ErrWrongKind) {
		t.Errorf("kind: got %v", err)
	}
	bad = bytes.Clone(enc)
	bad[len(bad)-1] ^= 0xff // footer
	if _, err := DecodeSession(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("footer: got %v", err)
	}
	// A hostile node count cannot force a giant allocation — it runs out
	// of real bytes first and reports corruption.
	huge := append(bytes.Clone(enc[:7+fingerprintBytes]), 0xff, 0xff, 0xff, 0x7f)
	if _, err := DecodeSession(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge count: got %v", err)
	}
}

// TestEncodeDeterministic: the format has one canonical encoding per
// state — checkpoint diffing and the daemon's atomic-rename flow rely
// on byte-stable output.
func TestEncodeDeterministic(t *testing.T) {
	if !bytes.Equal(encodeSession(t, validSession()), encodeSession(t, validSession())) {
		t.Fatal("session encoding not deterministic")
	}
	if !bytes.Equal(encodeFleet(t, validFleet(t)), encodeFleet(t, validFleet(t))) {
		t.Fatal("fleet encoding not deterministic")
	}
}

// largeSession builds a session state whose encoding is several times
// the encoder's 64 KiB buffer: 4000 live nodes with one to eight
// neighbors each, and batteries.
func largeSession() *SessionState {
	const n = 4000
	rng := rand.New(rand.NewPCG(5, 6))
	st := &SessionState{
		Config:  testConfig(),
		Pos:     make([]geom.Point, n),
		Alive:   make([]bool, n),
		Nodes:   make([]core.NodeResult, n),
		Battery: make([]float64, n),
		Stats:   SessionCounters{Joins: 7, Moves: 9},
	}
	for u := range st.Nodes {
		st.Pos[u] = geom.Point{X: rng.Float64() * 1e4, Y: rng.Float64() * 1e4}
		st.Alive[u] = true
		st.Battery[u] = rng.Float64()
		row := make([]core.Discovery, 1+rng.IntN(8))
		for i := range row {
			row[i] = core.Discovery{ID: (u + 1 + i) % n, Dist: rng.Float64() * 500, Dir: rng.Float64() * 6, Power: rng.Float64()}
		}
		st.Nodes[u] = core.NodeResult{Neighbors: row, GrowPower: rng.Float64(), Boundary: u%3 == 0}
	}
	return st
}

// failingWriter accepts limit bytes, then fails every write with err.
type failingWriter struct {
	buf   bytes.Buffer
	limit int
	err   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.limit-w.buf.Len())
	w.buf.Write(p[:n])
	if n < len(p) {
		return n, w.err
	}
	return n, nil
}

// State larger than the encoder's buffer round-trips, so the fields
// appended across each buffer boundary land intact, and a writer that
// fails anywhere fails the encode with its own error after receiving a
// prefix of the full encoding.
func TestEncodeAcrossBufferAndWriteErrors(t *testing.T) {
	want := largeSession()
	full := encodeSession(t, want)
	if len(full) < 3<<16 {
		t.Fatalf("encoding of %d bytes does not span several buffers", len(full))
	}
	got, err := DecodeSession(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	requireSessionEqual(t, want, got)

	errWrite := errors.New("injected write failure")
	for _, limit := range []int{0, 1, 1<<16 - 1, 1 << 16, 1<<16 + 1, len(full) / 2, len(full) - 1} {
		w := &failingWriter{limit: limit, err: errWrite}
		if err := EncodeSession(w, want); !errors.Is(err, errWrite) {
			t.Fatalf("writer failing after %d bytes: got %v, want the write error", limit, err)
		}
		if !bytes.HasPrefix(full, w.buf.Bytes()) {
			t.Fatalf("writer failing after %d bytes received bytes that are not a prefix of the encoding", limit)
		}
	}
}

func FuzzDecodeSession(f *testing.F) {
	valid := encodeSession(f, validSession())
	f.Add(valid)
	f.Add(v3Golden(f, "session-v3.ckpt"))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("CBTC"))
	f.Add(v3Golden(f, "fleet-v3.ckpt"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSession(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the decoder accepts must re-encode and re-decode: the
		// validated state is inside the format's domain.
		var buf bytes.Buffer
		if err := EncodeSession(&buf, st); err != nil {
			t.Fatalf("re-encode of accepted state failed: %v", err)
		}
		if _, err := DecodeSession(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-decode of accepted state failed: %v", err)
		}
	})
}

func FuzzDecodeFleet(f *testing.F) {
	valid := encodeFleet(f, validFleet(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(v3Golden(f, "fleet-v3.ckpt"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeFleet(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeFleet(&buf, st); err != nil {
			t.Fatalf("re-encode of accepted state failed: %v", err)
		}
		if _, err := DecodeFleet(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-decode of accepted state failed: %v", err)
		}
	})
}
