package cbtc

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"cbtc/internal/workload"
)

// statsHash folds session output into one FNV-64 digest.
type statsHash struct{ h hash.Hash64 }

func (sh statsHash) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	sh.h.Write(b[:])
}

func (sh statsHash) ints(vs []int) {
	sh.int(len(vs))
	for _, v := range vs {
		sh.int(v)
	}
}

func (sh statsHash) report(rep BatchReport) {
	sh.int(rep.AngleChanges)
	sh.int(rep.Regrows)
	sh.int(rep.Repairs)
	sh.ints(rep.Recomputed)
	sh.ints(rep.JoinIDs)
}

func (sh statsHash) stats(st SessionStats) {
	for _, v := range []int{st.Joins, st.Leaves, st.Moves, st.AngleChanges, st.Regrows, st.Repairs} {
		sh.int(v)
	}
}

// TestSessionStatsGolden pins the §4 classification of seeded
// multi-event histories bit for bit. Fresh-run equality checks the
// topology a repair leaves, not how the repair classified its events,
// yet those counters ride the codec. The digests are fixed: a rewrite of
// the repair must reproduce them, not regenerate them.
//
// Each digest covers four 80-node placements, each driven through 12
// randomBatch bursts of 1 to 32 events: every batch's BatchReport
// (AngleChanges, Regrows, Repairs, Recomputed, JoinIDs), then the final
// SessionStats and the Snapshot's edge list.
func TestSessionStatsGolden(t *testing.T) {
	const side = 1200.0
	for _, tc := range []struct {
		name     string
		opts     []Option
		protocol bool
		want     uint64
	}{
		{"shrinkback", []Option{WithMaxRadius(300), WithShrinkBack()}, false, 0xc761519c7048952d},
		{"all-ops", []Option{WithMaxRadius(300), WithAllOptimizations()}, false, 0x730dbae41f09b98b},
		{"shadowed", []Option{WithMaxRadius(300), WithShrinkBack(), WithShadowing(4, 5)}, false, 0xf83f6c94dd4edc9c},
		{"protocol", []Option{WithMaxRadius(300), WithShrinkBack()}, true, 0x7b4bff3a2065b588},
		{"schedule", []Option{WithMaxRadius(300), WithShrinkBack(), WithShrinkBackSchedule(1.5)}, false, 0x3398883e957f2987},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sh := statsHash{fnv.New64a()}
			var total SessionStats
			repeated := 0 // batches in which some node hears several events
			for seed := uint64(0); seed < 4; seed++ {
				pos := workload.Uniform(workload.Rand(seed), 80, side, side)
				var sess *Session
				if tc.protocol {
					sess, err = eng.NewProtocolSession(context.Background(), pos, SimOptions{Seed: seed})
				} else {
					sess, err = eng.NewSession(context.Background(), pos)
				}
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(seed, 2))
				for round := 0; round < 12; round++ {
					events := randomBatch(rng, sess, 1+rng.IntN(32), side)
					if hearsRepeatedly(sess, events) {
						repeated++
					}
					rep, err := sess.ApplyBatch(events)
					if err != nil {
						t.Fatal(err)
					}
					sh.report(rep)
				}
				st := sess.Stats()
				sh.stats(st)
				snap, err := sess.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				edges := snap.G.Edges()
				sh.int(len(edges))
				for _, e := range edges {
					sh.int(e.U)
					sh.int(e.V)
				}
				total.AngleChanges += st.AngleChanges
				total.Regrows += st.Regrows
				total.Repairs += st.Repairs
			}
			if total.AngleChanges == 0 || total.Regrows == 0 || total.Repairs == 0 || repeated == 0 {
				t.Fatalf("history too tame to pin the classification: %+v, %d batches with a repeated observer", total, repeated)
			}
			if got := sh.h.Sum64(); got != tc.want {
				t.Errorf("digest %#x, want %#x", got, tc.want)
			}
		})
	}
}

// hearsRepeatedly reports whether some live node lies within maximum
// range of the sites of two or more of the batch's leave and move
// events, at the positions the batch starts from.
func hearsRepeatedly(s *Session, events []Event) bool {
	r := s.Engine().Propagation().MaxLinkRadius()
	heard := map[int]int{}
	for _, ev := range events {
		if ev.Kind == EventJoin || !s.Alive(ev.ID) {
			continue
		}
		site := s.Position(ev.ID)
		for id := 0; id < s.Len(); id++ {
			if id != ev.ID && s.Alive(id) && s.Position(id).Dist(site) <= r {
				heard[id]++
				if heard[id] > 1 {
					return true
				}
			}
		}
	}
	return false
}
