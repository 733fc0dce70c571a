package codec

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
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
// node 3 departed (isolated everywhere), a 0–1–2 path topology.
func validSession(incremental bool) *SessionState {
	row := func(ids ...int) []core.Discovery {
		out := make([]core.Discovery, 0, len(ids))
		for _, id := range ids {
			out = append(out, core.Discovery{ID: id, Dist: 100 + float64(id), Dir: 0.5 * float64(id), Power: 40 + float64(id)})
		}
		return out
	}
	st := &SessionState{
		Config: testConfig(),
		Pos:    []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 50, Y: 50}},
		Alive:  []bool{true, true, true, false},
		Nodes: []core.NodeResult{
			{Neighbors: row(1), GrowPower: 41, Boundary: false},
			{Neighbors: row(0, 2), GrowPower: 42, Boundary: true},
			{Neighbors: row(1), GrowPower: 43, Boundary: false},
			{Neighbors: row()},
		},
		Stats:       SessionCounters{Joins: 1, Leaves: 2, Moves: 3, AngleChanges: 4, Regrows: 5, Repairs: 6},
		Incremental: incremental,
	}
	if !incremental {
		return st
	}
	st.Pruned = [][]core.Discovery{row(1), row(0, 2), row(1), row()}
	st.Nalpha = graph.NewDigraph(4)
	st.Nalpha.AddArc(0, 1)
	st.Nalpha.AddArc(1, 0)
	st.Nalpha.AddArc(1, 2)
	st.Nalpha.AddArc(2, 1)
	st.G = graph.New(4)
	st.G.AddEdge(0, 1)
	st.G.AddEdge(1, 2)
	st.GR = graph.New(4)
	st.GR.AddEdge(0, 1)
	st.GR.AddEdge(1, 2)
	st.GR.AddEdge(0, 2)
	return st
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
	altSession := *validSession(true)
	altSession.Config = altConfig
	return &FleetState{
		Config: testConfig(),
		Nets: []NetworkState{
			{Config: testConfig(), Kind: 0, Weight: 1, RNG: rng1, Done: 7, Target: 7, Events: 12, Degree: stream(7, 4), Radius: stream(7, 300), Components: stream(7, 1), Energy: stream(7, 9e5), Session: *validSession(true)},
			{Config: altConfig, Kind: 1, Weight: 3, RNG: rng2, Done: 7, Target: 9, Events: 9, Degree: stream(7, 5), Radius: stream(7, 280), Components: stream(7, 2), Energy: stream(7, 8e5), Session: altSession},
		},
	}
}

// requireSessionEqual compares decoded state against the original,
// using graph.Equal for the graphs (their internal arenas legitimately
// differ in layout).
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
	if got.Incremental != want.Incremental {
		t.Fatalf("incremental %v != %v", got.Incremental, want.Incremental)
	}
	if !want.Incremental {
		return
	}
	if !reflect.DeepEqual(got.Pruned, want.Pruned) {
		t.Fatal("pruned rows differ")
	}
	if !got.Nalpha.Equal(want.Nalpha) || !got.G.Equal(want.G) || !got.GR.Equal(want.GR) {
		t.Fatal("graphs differ")
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
	for _, incremental := range []bool{true, false} {
		want := validSession(incremental)
		got, err := DecodeSession(bytes.NewReader(encodeSession(t, want)))
		if err != nil {
			t.Fatalf("incremental=%v: %v", incremental, err)
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

// TestDecodeTruncation: every strict prefix of a valid checkpoint is an
// error (usually ErrCorrupt; header prefixes report ErrBadMagic), and
// never a panic.
func TestDecodeTruncation(t *testing.T) {
	enc := encodeSession(t, validSession(true))
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
}

// TestDecodeBitFlips flips every byte of a valid checkpoint one at a
// time: each mutation must either decode cleanly (benign field change)
// or fail with one of the four typed errors — never panic, never
// return an untyped error.
func TestDecodeBitFlips(t *testing.T) {
	enc := encodeSession(t, validSession(true))
	mut := make([]byte, len(enc))
	for i := 0; i < len(enc); i++ {
		copy(mut, enc)
		mut[i] ^= 0xff
		_, err := DecodeSession(bytes.NewReader(mut))
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrWrongKind) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	enc := encodeSession(t, validSession(true))

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
	bad[4] = 2 // the previous format version is no longer read
	if _, err := DecodeSession(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
		t.Errorf("version 2: got %v", err)
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
	huge := append(bytes.Clone(enc[:7+8*3+4+1+8]), 0xff, 0xff, 0xff, 0x7f)
	if _, err := DecodeSession(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge count: got %v", err)
	}
}

// TestEncodeDeterministic: the format has one canonical encoding per
// state — checkpoint diffing and the daemon's atomic-rename flow rely
// on byte-stable output.
func TestEncodeDeterministic(t *testing.T) {
	if !bytes.Equal(encodeSession(t, validSession(true)), encodeSession(t, validSession(true))) {
		t.Fatal("session encoding not deterministic")
	}
	if !bytes.Equal(encodeFleet(t, validFleet(t)), encodeFleet(t, validFleet(t))) {
		t.Fatal("fleet encoding not deterministic")
	}
}

func FuzzDecodeSession(f *testing.F) {
	valid := encodeSession(f, validSession(true))
	f.Add(valid)
	f.Add(encodeSession(f, validSession(false)))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("CBTC"))
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
