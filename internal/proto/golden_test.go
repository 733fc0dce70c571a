package proto

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/netsim"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// historyHash folds protocol output into one FNV-64 digest.
type historyHash struct{ h hash.Hash64 }

func newHistoryHash() historyHash { return historyHash{fnv.New64a()} }

func (hh historyHash) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	hh.h.Write(b[:])
}

func (hh historyHash) float(v float64) { hh.int(int(math.Float64bits(v))) }

func (hh historyHash) bool(v bool) {
	if v {
		hh.int(1)
	} else {
		hh.int(0)
	}
}

func (hh historyHash) neighbors(nbrs []core.Discovery) {
	hh.int(len(nbrs))
	for _, d := range nbrs {
		hh.int(d.ID)
		hh.float(d.Dist)
		hh.float(d.Dir)
		hh.float(d.Power)
	}
}

func (hh historyHash) stats(st netsim.Stats) {
	hh.int(st.Sent)
	hh.int(st.Delivered)
	hh.int(st.Dropped)
	hh.int(st.Duplicated)
	hh.int(st.Events)
}

// TestSeededHistoryGolden pins the seeded output of the Figure 1 runtime
// bit for bit. The digests are fixed: a rewrite of the runtime must
// reproduce them, not regenerate them. Any change to the order of the
// seeded PRNG draws, the event order or the protocol's arithmetic shows
// up here.
//
// The growing-phase digests cover 40 paper networks under three setups
// each: every node's discovered neighbors (ID and the bits of Dist, Dir
// and Power), GrowPower, Boundary and the removal notices it received,
// plus the simulator's counters. The NDP digests cover a scripted
// crash, two moves and a join under both beacon rules: every node's
// reconfiguration table, its four event counters and its Hello rounds.
func TestSeededHistoryGolden(t *testing.T) {
	m := testModel()
	shadowed, err := radio.NewLogDistance(m, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts netsim.Options
		cfg  Config
		want uint64
	}{
		{"jitter",
			netsim.Options{Model: m, Latency: 1, Jitter: 0.5},
			Config{Alpha: core.AlphaConnectivity},
			0x62c1fba91847aea5},
		{"lossy-asym",
			netsim.Options{Model: m, Latency: 1, DropProb: 0.1, DupProb: 0.1, AoANoise: 0.05},
			Config{Alpha: core.AlphaAsymmetric, AsymRemoval: true},
			0x478bf155653c4ff2},
		{"shadowed-asym",
			netsim.Options{Model: shadowed, Latency: 1},
			Config{Alpha: core.AlphaAsymmetric, AsymRemoval: true},
			0xaa008e714ca066a3},
	} {
		hh := newHistoryHash()
		for seed := uint64(0); seed < 40; seed++ {
			opts := tc.opts
			opts.Seed = seed
			_, rt, err := RunCBTC(workload.PaperNetwork(seed), opts, tc.cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			for _, n := range rt.Nodes {
				hh.neighbors(n.Neighbors())
				hh.float(n.GrowPower())
				hh.bool(n.Boundary())
				removed := n.RemovedBy()
				hh.int(len(removed))
				for _, id := range removed {
					hh.int(id)
				}
			}
			hh.stats(rt.Sim.Stats())
		}
		if got := hh.h.Sum64(); got != tc.want {
			t.Errorf("%s: growing-phase digest %#x, want %#x", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct {
		beacons BeaconPolicy
		want    uint64
	}{
		{BeaconBasicPower, 0xfbeff03aafd6ae00},
		{BeaconShrunkPower, 0x8111046005afc3f2},
	} {
		hh := newHistoryHash()
		for seed := uint64(0); seed < 12; seed++ {
			rt := runNDPScenario(t, m, seed, tc.beacons)
			for _, n := range rt.Nodes {
				hh.neighbors(n.TableNeighbors())
				hh.int(n.Joins)
				hh.int(n.Leaves)
				hh.int(n.AngleChanges)
				hh.int(n.Regrows)
				hh.int(n.Rounds())
			}
			hh.stats(rt.Sim.Stats())
		}
		if got := hh.h.Sum64(); got != tc.want {
			t.Errorf("%v: NDP digest %#x, want %#x", tc.beacons, got, tc.want)
		}
	}
}

// runNDPScenario runs the NDP over a seeded placement with jittered
// deliveries: a crash at t = 150, two moves and a join, then Run(400).
func runNDPScenario(t *testing.T, m radio.Model, seed uint64, beacons BeaconPolicy) *Runtime {
	t.Helper()
	rng := workload.Rand(seed)
	pos := workload.Uniform(rng, 30, 1200, 1200)
	cfg := ndpConfig(core.AlphaConnectivity)
	cfg.Beacons = beacons
	rt, err := Start(pos, netsim.Options{Model: m, Latency: 1, Jitter: 0.5, Seed: seed}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := int(rng.Uint64() % 30)
	rt.Sim.ScheduleAt(150, func() { rt.Sim.Crash(victim) })
	for i, at := range []float64{170, 220} {
		mover := (victim + 1 + i) % 30
		dest := geom.Pt(rng.Float64()*1200, rng.Float64()*1200)
		rt.Sim.ScheduleAt(at, func() { rt.Sim.MoveNode(mover, dest) })
	}
	join := geom.Pt(rng.Float64()*1200, rng.Float64()*1200)
	rt.Sim.ScheduleAt(260, func() { rt.AddNode(join) })
	rt.Sim.Run(400)
	return rt
}
