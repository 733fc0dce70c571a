package proto

import (
	"math"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/netsim"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// The allocation contracts of the Figure 1 runtime: messages are typed
// values, per-neighbor state lives in id-sorted rows that start in
// shared arenas, the per-round gap test reads the node's maintained
// direction set, the phase-end neighbor sort runs in a reused buffer,
// and the Reconfigurator's gap tests reuse its own scratch. These tests
// pin the reductions so they cannot silently erode; the benchguard alloc
// ceilings pin the macro effect on the full sim.

func allocTestNode(t *testing.T) *Node {
	t.Helper()
	m := radio.Default(400)
	pos := workload.Uniform(workload.Rand(21), 30, 900, 900)
	_, rt, err := RunCBTC(pos, netsim.DefaultOptions(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rt.Nodes {
		if len(n.discovered) >= 4 {
			return n
		}
	}
	t.Fatal("no node with enough neighbors")
	return nil
}

// The whole growing phase of a 400-node network makes fewer than two
// allocations per node (about 0.9 on this network: the delivery grid's
// cells and the rows that outgrow their shared room), while it sends
// tens of messages per node and each node discovers about ten
// neighbors: nothing is allocated per message or per neighbor.
func TestGrowingPhaseAllocations(t *testing.T) {
	m := testModel()
	pos := workload.Uniform(workload.Rand(3), 400, 3000, 3000)
	opts := netsim.Options{Model: m, Latency: 1, Jitter: 0.5, Seed: 1}
	cfg := Config{Alpha: core.AlphaConnectivity}
	var sent int
	allocs := testing.AllocsPerRun(3, func() {
		_, rt, err := RunCBTC(pos, opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sent = rt.Sim.Stats().Sent
	})
	if sent < 10*len(pos) {
		t.Fatalf("workload too quiet: %d messages sent", sent)
	}
	if allocs >= float64(2*len(pos)) {
		t.Fatalf("the growing phase of %d nodes (%d messages) allocates %.0f objects, want fewer than two per node",
			len(pos), sent, allocs)
	}
}

func TestDirectionsGapTestAllocationFree(t *testing.T) {
	n := allocTestNode(t)
	if avg := testing.AllocsPerRun(200, func() {
		_ = geom.HasGapSorted(n.directions(), n.cfg.Alpha)
	}); avg != 0 {
		t.Fatalf("the gap test allocates %.1f per call; the maintained direction set should make it 0", avg)
	}
}

// The direction set is maintained incrementally across discoveries,
// beacon joins, bearing updates and departures; at every node it must
// equal the set rebuilt from the discovered row, bit for bit.
func TestDirectionsTrackDiscovered(t *testing.T) {
	m := testModel()
	for seed := uint64(0); seed < 4; seed++ {
		for _, beacons := range []BeaconPolicy{BeaconBasicPower, BeaconShrunkPower} {
			rt := runNDPScenario(t, m, seed, beacons)
			for u, n := range rt.Nodes {
				var want []float64
				for _, d := range n.discovered {
					want = geom.InsertSorted(want, d.Dir)
				}
				got := n.directions()
				if len(got) != len(want) {
					t.Fatalf("seed %d %v node %d: %d directions for %d discoveries", seed, beacons, u, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d %v node %d: direction %d is %v, the rebuilt set has %v", seed, beacons, u, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPhaseEndNeighborsPooled(t *testing.T) {
	n := allocTestNode(t)
	n.nbrScratch = n.AppendNeighbors(n.nbrScratch[:0]) // warm the buffer
	if avg := testing.AllocsPerRun(200, func() {
		n.nbrScratch = n.AppendNeighbors(n.nbrScratch[:0])
	}); avg != 0 {
		t.Fatalf("AppendNeighbors into a warmed buffer allocates %.1f per call, want 0", avg)
	}
	// The public form pays exactly its output slice.
	if avg := testing.AllocsPerRun(200, func() {
		_ = n.Neighbors()
	}); avg > 1 {
		t.Fatalf("Neighbors() allocates %.1f per call, want ≤ 1", avg)
	}
}

func TestReconfiguratorGapTestAllocationFree(t *testing.T) {
	n := allocTestNode(t)
	rec := core.NewReconfigurator(core.AlphaConnectivity, radio.Default(400), n.Neighbors())
	rec.HasGap() // warm the direction scratch
	if avg := testing.AllocsPerRun(200, func() {
		_ = rec.HasGap()
	}); avg != 0 {
		t.Fatalf("Reconfigurator.HasGap allocates %.1f per call, want 0", avg)
	}
}
