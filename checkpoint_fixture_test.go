package cbtc

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cbtc/internal/workload"
)

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite the golden checkpoint fixtures in testdata/")

// The golden checkpoints in testdata/ were written by an earlier build of
// the package. Building the fixture states afresh must reproduce the
// current format's bytes exactly, and so must restoring and re-encoding
// them, which pins the constructors, the codec format and the mapping
// from engine options to the checkpoint fingerprint. Regenerate
// the current-format goldens (with -update-fixtures) only for a
// deliberate format change. The version-3 goldens are never rewritten:
// they are what older builds left on disk, and each must re-encode to
// exactly its version-4 counterpart.
const (
	sessionFixture   = "testdata/session-v4.ckpt"
	fleetFixture     = "testdata/fleet-v4.ckpt"
	sessionFixtureV3 = "testdata/session-v3.ckpt"
	fleetFixtureV3   = "testdata/fleet-v3.ckpt"
)

// fixtureSessionEngine is a 2π/3 all-ops stack on an n = 3 radio with
// quantized shrink-back tags.
func fixtureSessionEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(WithMaxRadius(450), WithPathLoss(3), WithAlpha(AlphaAsymmetric),
		WithAllOptimizations(), WithShrinkBackSchedule(1.5))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// fixtureFleetEngine is a shadowed, battery-powered shrink-back stack.
func fixtureFleetEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(WithMaxRadius(500), WithShadowing(4, 7), WithBattery(1e9, 1), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// buildFixtures builds the fixture states from scratch and returns their
// checkpoint bytes: a session after a move, a leave and a join, and a
// three-member fleet (one of them protocol-built) after three drift
// ticks.
func buildFixtures(t *testing.T) (session, fleet []byte) {
	t.Helper()
	ctx := context.Background()
	sess, err := fixtureSessionEngine(t).NewSession(ctx, workload.Uniform(workload.Rand(31), 30, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Move(4, Pt(500, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Leave(7); err != nil {
		t.Fatal(err)
	}
	sess.Join(Pt(250, 750))
	var sbuf bytes.Buffer
	if err := sess.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}

	sz := workload.MemberSize{N: 20, Side: 900}
	members := make([]MemberSpec, 3)
	for i := range members {
		members[i] = MemberSpec{Placement: workload.MemberPlacement(11, i, sz)}
	}
	members[1].Options = []Option{WithPathLoss(3), WithMaxRadius(450)}
	members[2].Kind = MemberProtocol
	f, err := fixtureFleetEngine(t).NewFleet(ctx, FleetConfig{Members: members, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tick := DriftTick(TickProfile{Moves: 3, Jitter: 40, JoinProb: 0.3, LeaveProb: 0.3, Width: 900, Height: 900})
	if _, err := f.Run(ctx, 3, tick); err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	if err := f.Checkpoint(&fbuf); err != nil {
		t.Fatal(err)
	}
	return sbuf.Bytes(), fbuf.Bytes()
}

// TestCheckpointFixtures rebuilds each fixture state from scratch and
// requires its checkpoint to equal the current-format golden byte for
// byte, which pins NewSession, NewFleet with its protocol-built member,
// the session and fleet ticks and the encoder end to end. It then
// restores each golden on the engine that wrote it and requires the
// restored object to re-encode to the same bytes.
func TestCheckpointFixtures(t *testing.T) {
	session, fleet := buildFixtures(t)
	if *updateFixtures {
		if err := os.MkdirAll(filepath.Dir(sessionFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{sessionFixture: session, fleetFixture: fleet} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	type checkpointer interface{ Checkpoint(io.Writer) error }
	for _, fx := range []struct {
		eng     *Engine
		v4, v3  string
		built   []byte
		restore func(*Engine, io.Reader) (checkpointer, error)
	}{
		{fixtureSessionEngine(t), sessionFixture, sessionFixtureV3, session,
			func(e *Engine, r io.Reader) (checkpointer, error) { return e.RestoreSession(r) }},
		{fixtureFleetEngine(t), fleetFixture, fleetFixtureV3, fleet,
			func(e *Engine, r io.Reader) (checkpointer, error) { return e.RestoreFleet(r) }},
	} {
		want, err := os.ReadFile(fx.v4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fx.built, want) {
			t.Errorf("a fresh build checkpoints to %d bytes that differ from %s (%d bytes)",
				len(fx.built), fx.v4, len(want))
		}
		for _, path := range []string{fx.v4, fx.v3} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := fx.restore(fx.eng, bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var buf bytes.Buffer
			if err := restored.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s (%d bytes) re-encodes to %d bytes that differ from %s (%d bytes)",
					path, len(data), buf.Len(), fx.v4, len(want))
			}
		}
	}
}
