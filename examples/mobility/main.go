// Mobility: dynamic reconfiguration under node movement and failure
// (§4 of the paper), driven entirely through the library's public
// Session API. The example builds a topology over two towns bridged by
// a relay, then scripts a scenario: the relay crashes, a distant
// wanderer moves in to take its place, and the network heals itself
// through the §4 join/leave/aChange events — with incremental repair
// (only nodes whose beacon reaches an event recompute) and the
// connectivity guarantee holding at every step.
//
// For the same scenario at the message-passing level — beacons, leave
// timeouts, lossy channels — see `go run ./cmd/dynsim -demo` and the
// internal discrete-event simulator it drives.
//
//	go run ./examples/mobility
package main

import (
	"context"
	"fmt"
	"log"

	"cbtc"
)

func main() {
	// Two towns bridged by a relay; node 7 starts far away in the south.
	pos := []cbtc.Point{
		cbtc.Pt(0, 0), cbtc.Pt(150, 50), cbtc.Pt(80, 160), // west town
		cbtc.Pt(520, 100),                                      // the relay, node 3
		cbtc.Pt(950, 0), cbtc.Pt(1050, 120), cbtc.Pt(900, 180), // east town
		cbtc.Pt(500, 1400), // wanderer, node 7
	}

	eng, err := cbtc.New(
		cbtc.WithMaxRadius(500),
		cbtc.WithAlpha(cbtc.AlphaConnectivity),
	)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), pos)
	if err != nil {
		log.Fatal(err)
	}

	report := func(when string) {
		snap, err := sess.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s components=%d edges=%2d  connectivity preserved=%v\n",
			when, snap.Components(), snap.G.EdgeCount(), snap.PreservesConnectivity())
	}
	report("initial topology:")

	// The bridge relay dies. Its neighbors observe leave events; the
	// towns (correctly) split into separate components.
	rep, err := sess.Leave(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  relay crash repaired %d nodes (%d regrows)\n", len(rep.Recomputed), rep.Regrows)
	report("after relay crash:")

	// The wanderer moves to the relay position: its beacon produces join
	// events in both towns and the network reconnects through it.
	rep, err = sess.Move(7, cbtc.Pt(520, 100))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  wanderer move repaired %d nodes (%d regrows, %d angle changes)\n",
		len(rep.Recomputed), rep.Regrows, rep.AngleChanges)
	report("after wanderer takes over:")

	// Reinforce the bridge with a brand-new node; IDs are stable, so the
	// newcomer gets the next free index.
	id, rep := sess.Join(cbtc.Pt(600, 40))
	fmt.Printf("  node %d joined, repairing %d nodes\n", id, len(rep.Recomputed))
	report("after reinforcement joins:")

	// A mobility tick: the whole east town drifts north together. Bursts
	// of correlated moves are the batch API's shape — ApplyBatch applies
	// every event, unions the recompute sets, and repairs the union
	// with one recompute instead of one per move.
	batch, err := sess.ApplyBatch([]cbtc.Event{
		cbtc.MoveEvent(4, cbtc.Pt(950, 60)),
		cbtc.MoveEvent(5, cbtc.Pt(1050, 180)),
		cbtc.MoveEvent(6, cbtc.Pt(900, 240)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  east-town drift batch repaired %d nodes once (%d regrows, %d angle changes)\n",
		len(batch.Recomputed), batch.Regrows, batch.AngleChanges)
	report("after east town drifts:")

	st := sess.Stats()
	fmt.Printf("\nreconfiguration events: %d joins, %d leaves, %d moves, %d angle changes, %d regrows, %d repairs\n",
		st.Joins, st.Leaves, st.Moves, st.AngleChanges, st.Regrows, st.Repairs)

	// The session's incremental state equals a from-scratch run over the
	// current live placement — the §4 convergence property.
	snap, err := sess.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live topology preserves current G_R partition: %v\n", snap.PreservesConnectivity())
}
