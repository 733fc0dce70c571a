package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
	"cbtc/internal/workload"
)

// This file keeps the growing phase as it stood before it drew its
// candidates from a heap: sortCandidates puts the whole gather in
// discovery order and growSortedRef walks the sorted list one group of
// tying keys at a time. grow must return the same NodeResult bit for
// bit, and leave every candidate in the scratch for the G_R sink.

// sortCandidates puts candidates in discovery order, (key, dist, id).
// That is a strict total order — ids are distinct — so any comparison
// sort yields the same unique sequence.
func sortCandidates(out []candidate) {
	slices.SortFunc(out, func(a, b candidate) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
}

// growSortedRef is the sort-then-walk growing phase: sort every
// candidate, then admit groups whose keys tie with the group's first.
func growSortedRef(pos []geom.Point, m radio.Propagation, alpha float64, u int, cands []candidate) NodeResult {
	sortCandidates(cands)
	pure, nominal := m.DistancePure(), m.Nominal()
	var (
		nbrs []Discovery
		dirs []float64
	)
	i := 0
	for i < len(cands) {
		groupEnd := i + 1
		for groupEnd < len(cands) && sameDist(cands[groupEnd].key, cands[i].key) {
			groupEnd++
		}
		groupPower := cands[groupEnd-1].key
		if pure {
			groupPower = nominal.PowerFor(cands[groupEnd-1].dist)
		}
		for ; i < groupEnd; i++ {
			c := cands[i]
			dir := pos[u].Bearing(pos[c.id])
			nbrs = append(nbrs, Discovery{ID: c.id, Dist: c.dist, Dir: dir, Power: groupPower})
			dirs = geom.InsertSorted(dirs, dir)
		}
		if !geom.HasGapSorted(dirs, alpha) {
			return NodeResult{Neighbors: nbrs, GrowPower: groupPower}
		}
	}
	return NodeResult{Neighbors: nbrs, GrowPower: nominal.MaxPower(), Boundary: true}
}

// requireGrowMatchesSortedWalk runs grow on cands, in the order given,
// and the sorted walk on a copy, and requires equal results and a grown
// scratch that is still a permutation of the candidates.
func requireGrowMatchesSortedWalk(t *testing.T, label string, pos []geom.Point, m radio.Propagation, alpha float64, u int, cands []candidate, scr *gatherScratch) {
	t.Helper()
	in := slices.Clone(cands)
	want := growSortedRef(pos, m, alpha, u, slices.Clone(cands))
	got := grow(pos, m, alpha, u, cands, scr)
	if !sameNodeResultBits(got, want) {
		t.Fatalf("%s, alpha %v, node %d: grow\n got %+v\nwant %+v", label, alpha, u, got, want)
	}
	sortCandidates(in)
	sortCandidates(cands)
	if !slices.Equal(in, cands) {
		t.Fatalf("%s, alpha %v, node %d: grow lost candidates: %v, gathered %v", label, alpha, u, cands, in)
	}
}

// checkGrowMatchesSortedWalk gathers every node's candidates over the
// grid and the alive mask, unsorted, and requires grow to match the
// sorted walk on them. One scratch serves every node, so stale state
// would show.
func checkGrowMatchesSortedWalk(t *testing.T, label string, pos []geom.Point, alive []bool, m radio.Propagation, alpha float64) {
	t.Helper()
	grid := spatial.New(pos, m.MaxLinkRadius())
	var scr gatherScratch
	for u := range pos {
		cands := gatherCandidates(pos, alive, m, m.DistancePure(), u, grid, &scr)
		requireGrowMatchesSortedWalk(t, label, pos, m, alpha, u, cands, &scr)
	}
}

// The heap-driven growing phase equals the sort-then-walk on every
// placement shape, radio and cone angle, with and without an alive mask,
// and on hand-built groups whose keys tie within distTieTol while their
// distances descend — the shadowed case, where the nearest member of a
// group is not the first discovered.
func TestGrowMatchesSortedWalk(t *testing.T) {
	radios := refRadios(t)
	for shape := uint64(0); shape < refShapes; shape++ {
		pos := refPlacement(t, shape, 3, 50)
		alive := refAliveMask(workload.Rand(shape+300), len(pos))
		for ri, m := range radios {
			for _, alpha := range refOracleAlphas {
				label := fmt.Sprintf("shape %d radio %d", shape, ri)
				checkGrowMatchesSortedWalk(t, label, pos, nil, m, alpha)
				checkGrowMatchesSortedWalk(t, label+" alive mask", pos, alive, m, alpha)
			}
		}
	}

	// Node 0 at the center, eight nodes around it. Keys K(1 + j·2e-13)
	// tie with the group's first within distTieTol while the distances
	// descend; the last group chains keys 0.8e-12 apart, so its third
	// key ties with the second but not the first and opens a new group.
	pos := []geom.Point{geom.Pt(0, 0)}
	for k := range 8 {
		pos = append(pos, geom.Pt(0, 0).Polar(100, float64(k)*geom.TwoPi/8+0.1))
	}
	const key = 4000.0
	shadowed := []candidate{
		{id: 5, dist: 90, key: key * 2},
		{id: 1, dist: 140, key: key},
		{id: 3, dist: 130, key: key * (1 + 2e-13)},
		{id: 7, dist: 120, key: key * (1 + 4e-13)},
		{id: 2, dist: 110, key: key * (1 + 6e-13)},
		{id: 4, dist: 80, key: key * 3},
		{id: 6, dist: 70, key: key * 3 * (1 + 0.8e-12)},
		{id: 8, dist: 60, key: key * 3 * (1 + 1.6e-12)},
	}
	sigma, err := radio.NewLogDistance(radio.Default(refRadius), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var scr gatherScratch
	for _, m := range []radio.Propagation{sigma, radio.Default(refRadius)} {
		for _, alpha := range refOracleAlphas {
			for rot := range shadowed {
				order := append(slices.Clone(shadowed[rot:]), shadowed[:rot]...)
				requireGrowMatchesSortedWalk(t, fmt.Sprintf("shadowed group, pure %v, rotation %d", m.DistancePure(), rot), pos, m, alpha, 0, order, &scr)
				slices.Reverse(order)
				requireGrowMatchesSortedWalk(t, fmt.Sprintf("shadowed group, pure %v, reversed rotation %d", m.DistancePure(), rot), pos, m, alpha, 0, order, &scr)
			}
		}
	}
	// The chained group splits as the sorted walk splits it: nodes 4 and
	// 6 share one power, node 8 is a group of its own.
	nr := grow(pos, sigma, math.Pi/4, 0, slices.Clone(shadowed), &scr)
	if len(nr.Neighbors) != len(shadowed) {
		t.Fatalf("α = π/4 must admit all %d candidates, got %d", len(shadowed), len(nr.Neighbors))
	}
	tail := nr.Neighbors[5:]
	if tail[0].Power != tail[1].Power || tail[1].Power == tail[2].Power {
		t.Fatalf("chained keys grouped as %v", tail)
	}
}
