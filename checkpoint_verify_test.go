package cbtc

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"cbtc/internal/codec"
	"cbtc/internal/workload"
)

// checkpointSentinels are the errors a restore classifies failures by.
var checkpointSentinels = []error{
	ErrConfigMismatch, ErrNotCheckpoint, ErrCheckpointVersion, ErrCheckpointKind, ErrCheckpointCorrupt,
}

// verifyMatchesRestore requires VerifyFleetCheckpoint and RestoreFleet
// to agree on data under eng: either both reject it, with the same text
// and the same sentinels, or both accept it and Verify returns the
// restored fleet's watermarks. It returns the error both gave.
func verifyMatchesRestore(t testing.TB, eng *Engine, data []byte) error {
	t.Helper()
	wm, verr := eng.VerifyFleetCheckpoint(bytes.NewReader(data))
	f, rerr := eng.RestoreFleet(bytes.NewReader(data))
	if (verr == nil) != (rerr == nil) {
		t.Fatalf("verify error %v, restore error %v", verr, rerr)
	}
	if rerr != nil {
		if verr.Error() != rerr.Error() {
			t.Fatalf("verify error %q, restore error %q", verr, rerr)
		}
		for _, sentinel := range checkpointSentinels {
			if errors.Is(verr, sentinel) != errors.Is(rerr, sentinel) {
				t.Fatalf("errors.Is(_, %v): verify %v, restore %v", sentinel, errors.Is(verr, sentinel), errors.Is(rerr, sentinel))
			}
		}
		return rerr
	}
	if want := f.Watermarks(); !reflect.DeepEqual(wm, want) {
		t.Fatalf("verify watermarks %+v, restored fleet's %+v", wm, want)
	}
	return nil
}

// fleetBytes checkpoints f.
func fleetBytes(t testing.TB, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mangleFleet decodes a fleet checkpoint, applies mangle and re-encodes
// it.
func mangleFleet(t testing.TB, data []byte, mangle func(st *codec.FleetState)) []byte {
	t.Helper()
	st, err := codec.DecodeFleet(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mangle(st)
	var buf bytes.Buffer
	if err := codec.EncodeFleet(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mixedBatteryFleet is a battery fleet of shrink-back oracle, protocol,
// shadowed and all-optimizations members after a few drift ticks.
func mixedBatteryFleet(t testing.TB) (*Engine, *Fleet) {
	t.Helper()
	eng, err := New(WithMaxRadius(500), WithShrinkBack(), WithBattery(1e9, 1))
	if err != nil {
		t.Fatal(err)
	}
	members := oracleMembers([][]Point{someNetwork(51, 30), someNetwork(52, 25), someNetwork(53, 35), someNetwork(54, 20)})
	members[1].Kind = MemberProtocol
	members[2].Options = []Option{WithShadowing(4, 3)}
	members[2].Ticks = 2
	members[3].Options = []Option{WithAllOptimizations()}
	f, err := eng.NewFleet(context.Background(), FleetConfig{Members: members, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tick := DriftTick(TickProfile{Moves: 3, Jitter: 40, JoinProb: 0.3, LeaveProb: 0.3, Width: 1500, Height: 1500})
	if _, err := f.Run(context.Background(), 3, tick); err != nil {
		t.Fatal(err)
	}
	return eng, f
}

// raggedFleetBytes checkpoints a mixed fleet whose run was cancelled
// partway, so its members' clocks stand behind their targets.
func raggedFleetBytes(t testing.TB) (*Engine, []byte) {
	t.Helper()
	const seed = 43
	members := mixedMembers(t, seed)
	tick := fleetTick(workload.Fleet(len(members), 40, "uniform"))
	eng := fleetEngine(t)
	f, err := eng.NewFleet(context.Background(), FleetConfig{Members: members, Seed: seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	interrupting := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		if calls.Add(1) == 10 {
			cancel()
		}
		return tick(net, tk, rng, s)
	}
	if err := f.Advance(ctx, 3, interrupting); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Advance error = %v, want context.Canceled", err)
	}
	ragged := false
	for _, c := range f.Watermarks().Members {
		ragged = ragged || c.Ticks < c.Target
	}
	if !ragged {
		t.Fatal("cancellation left no member behind its target")
	}
	return eng, fleetBytes(t, f)
}

// corruptMembersBytes is TestRestoreFleetLowestIndexError's input: six
// members, the third a 3000-node one, with a duplicate neighbor in the
// last row with two of members 2, 3 and 5.
func corruptMembersBytes(t testing.TB, eng *Engine) []byte {
	t.Helper()
	placements := make([][]Point, 6)
	for i := range placements {
		placements[i] = someNetwork(uint64(30+i), 25)
	}
	placements[2] = workload.Uniform(workload.Rand(32), 3000, 6000, 6000)
	f, err := eng.NewFleet(context.Background(), FleetConfig{Members: oracleMembers(placements), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mangleFleet(t, fleetBytes(t, f), func(st *codec.FleetState) {
		for _, i := range []int{2, 3, 5} {
			nodes := st.Nets[i].Session.Nodes
			u := len(nodes) - 1
			for len(nodes[u].Neighbors) < 2 {
				u--
			}
			nodes[u].Neighbors[1] = nodes[u].Neighbors[0]
		}
	})
}

// TestVerifyFleetCheckpointMatchesRestore: VerifyFleetCheckpoint
// rejects exactly the checkpoints RestoreFleet rejects, with the same
// error, and on every checkpoint RestoreFleet accepts it returns the
// restored fleet's watermarks.
func TestVerifyFleetCheckpointMatchesRestore(t *testing.T) {
	ctx := context.Background()
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(ctx, someNetwork(2, 25))
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sess.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	fleet, err := eng.NewFleet(ctx, FleetConfig{Members: oracleMembers([][]Point{someNetwork(4, 25), someNetwork(5, 25)}), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Member 1's node 3 departs, so its rows can name a departed node.
	if err := fleet.TickEvents(ctx, [][]Event{nil, {LeaveEvent(3)}}); err != nil {
		t.Fatal(err)
	}
	fbuf := fleetBytes(t, fleet)
	batEng, batFleet := mixedBatteryFleet(t)
	batBuf := fleetBytes(t, batFleet)
	otherEng, err := New(WithMaxRadius(400), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	verFlip := bytes.Clone(fbuf)
	verFlip[4] ^= 0xff

	raggedEng, ragged := raggedFleetBytes(t)
	// want is the sentinel both calls must refuse the input with, or nil
	// for an input both must accept.
	type input struct {
		name string
		eng  *Engine
		data []byte
		want error
	}
	inputs := []input{
		{"garbage", eng, []byte("not a checkpoint"), ErrNotCheckpoint},
		{"version flip", eng, verFlip, ErrCheckpointVersion},
		{"session checkpoint", eng, sbuf.Bytes(), ErrCheckpointKind},
		{"other engine", otherEng, fbuf, ErrConfigMismatch},
		{"member with reference loss 2", eng, mangleFleet(t, fbuf, func(st *codec.FleetState) {
			st.Nets[0].Config.RefLoss = 2
		}), ErrCheckpointCorrupt},
		{"departed row", eng, mangleFleet(t, fbuf, func(st *codec.FleetState) {
			nodes := st.Nets[1].Session.Nodes
			nodes[3].Neighbors = nodes[4].Neighbors
		}), ErrCheckpointCorrupt},
		{"departed neighbor", eng, mangleFleet(t, fbuf, func(st *codec.FleetState) {
			st.Nets[1].Session.Nodes[4].Neighbors[0].ID = 3
		}), ErrCheckpointCorrupt},
		{"duplicate neighbor", eng, mangleFleet(t, fbuf, func(st *codec.FleetState) {
			nbrs := st.Nets[1].Session.Nodes[4].Neighbors
			nbrs[1] = nbrs[0]
		}), ErrCheckpointCorrupt},
		{"bad rng state", eng, mangleFleet(t, fbuf, func(st *codec.FleetState) {
			st.Nets[1].RNG = st.Nets[1].RNG[:len(st.Nets[1].RNG)-1]
		}), ErrCheckpointCorrupt},
		{"battery vector one short", batEng, mangleFleet(t, batBuf, func(st *codec.FleetState) {
			bat := st.Nets[2].Session.Battery
			st.Nets[2].Session.Battery = bat[:len(bat)-1]
		}), ErrCheckpointCorrupt},
		{"battery vector missing", batEng, mangleFleet(t, batBuf, func(st *codec.FleetState) {
			st.Nets[2].Session.Battery = nil
		}), ErrCheckpointCorrupt},
		{"battery vector without a battery model", eng, mangleFleet(t, fbuf, func(st *codec.FleetState) {
			st.Nets[1].Session.Battery = make([]float64, len(st.Nets[1].Session.Pos))
		}), ErrCheckpointCorrupt},
		{"no members", eng, mangleFleet(t, fbuf, func(st *codec.FleetState) {
			st.Nets = nil
		}), ErrCheckpointCorrupt},
		{"fleet", eng, fbuf, nil},
		{"ragged fleet", raggedEng, ragged, nil},
		{"mixed battery fleet", batEng, batBuf, nil},
	}
	for _, cut := range []int{7, len(fbuf) / 2, len(fbuf) - 1} {
		inputs = append(inputs, input{"truncated", eng, fbuf[:cut], ErrCheckpointCorrupt})
	}
	for _, workers := range []int{1, 2, 6} {
		wEng, err := New(WithMaxRadius(500), WithShrinkBack(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"corrupt members 2, 3 and 5", wEng, corruptMembersBytes(t, wEng), ErrCheckpointCorrupt})
	}
	for _, path := range []string{fleetFixture, fleetFixtureV3} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{path, fixtureFleetEngine(t), data, nil})
	}
	for _, tc := range inputs {
		err := verifyMatchesRestore(t, tc.eng, tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		t.Logf("%s: %v", tc.name, err)
	}
}

// FuzzVerifyFleetCheckpoint: on any input, VerifyFleetCheckpoint and
// RestoreFleet agree, as TestVerifyFleetCheckpointMatchesRestore
// checks on hand-made inputs. The corpus starts from the fleet goldens.
func FuzzVerifyFleetCheckpoint(f *testing.F) {
	for _, path := range []string{fleetFixture, fleetFixtureV3} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		verifyMatchesRestore(t, fixtureFleetEngine(t), data)
	})
}
