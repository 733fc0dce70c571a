package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
	"cbtc/internal/workload"
)

// This file keeps the growing phase as it stood with one kernel per radio
// kind: a distance-ordered gather and loop on the concrete power law, and
// a need-ordered gather and loop with per-link admission for every other
// radio. The tests below require runNode — one gather and one loop for
// every radio — to return bit-identical NodeResults.

// refCandidate is a reference gather's candidate; need is set on the
// per-link path only.
type refCandidate struct {
	id         int
	dist, need float64
}

// runNodeRef dispatches on the radio's purity, as the oracle used to.
func runNodeRef(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index) NodeResult {
	if m.DistancePure() {
		return runNodePureRef(pos, alive, m.Nominal(), alpha, u, idx)
	}
	return runNodeLinkRef(pos, alive, m, alpha, u, idx)
}

func runNodePureRef(pos []geom.Point, alive []bool, m radio.Model, alpha float64, u int, idx Index) NodeResult {
	cands := reachableCandidatesRef(pos, alive, m, u, idx)
	neighbors := make([]Discovery, 0, len(cands))
	var dirs []float64
	i := 0
	for i < len(cands) {
		groupEnd := i + 1
		for groupEnd < len(cands) && sameDist(cands[groupEnd].dist, cands[i].dist) {
			groupEnd++
		}
		groupPower := m.PowerFor(cands[groupEnd-1].dist)
		for ; i < groupEnd; i++ {
			c := cands[i]
			dir := pos[u].Bearing(pos[c.id])
			neighbors = append(neighbors, Discovery{ID: c.id, Dist: c.dist, Dir: dir, Power: groupPower})
			dirs = geom.InsertSorted(dirs, dir)
		}
		if !geom.HasGapSorted(dirs, alpha) {
			return NodeResult{Neighbors: neighbors, GrowPower: groupPower}
		}
	}
	return NodeResult{Neighbors: neighbors, GrowPower: m.MaxPower(), Boundary: true}
}

func runNodeLinkRef(pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, u int, idx Index) NodeResult {
	cands := linkCandidatesRef(pos, alive, m, u, idx)
	neighbors := make([]Discovery, 0, len(cands))
	var dirs []float64
	i := 0
	for i < len(cands) {
		groupEnd := i + 1
		for groupEnd < len(cands) && sameDist(cands[groupEnd].need, cands[i].need) {
			groupEnd++
		}
		groupPower := cands[groupEnd-1].need
		for ; i < groupEnd; i++ {
			c := cands[i]
			dir := pos[u].Bearing(pos[c.id])
			neighbors = append(neighbors, Discovery{ID: c.id, Dist: c.dist, Dir: dir, Power: groupPower})
			dirs = geom.InsertSorted(dirs, dir)
		}
		if !geom.HasGapSorted(dirs, alpha) {
			return NodeResult{Neighbors: neighbors, GrowPower: groupPower}
		}
	}
	return NodeResult{Neighbors: neighbors, GrowPower: m.MaxPower(), Boundary: true}
}

// refGather applies admit to every node the index returns for the query
// radius qr around u, or to every node when idx is nil.
func refGather(pos []geom.Point, u int, idx Index, qr float64, admit func(v int)) {
	if idx == nil {
		for v := range pos {
			admit(v)
		}
		return
	}
	var ids []int
	if g, ok := idx.(unorderedIndex); ok {
		ids = g.AppendWithinUnordered(nil, pos[u], qr)
	} else {
		ids = idx.Within(pos[u], qr)
	}
	for _, v := range ids {
		admit(v)
	}
}

// reachableCandidatesRef is the power-law gather: nodes within
// MaxRadius·(1+distTieTol), sorted by (dist, id).
func reachableCandidatesRef(pos []geom.Point, alive []bool, m radio.Model, u int, idx Index) []refCandidate {
	rr := m.MaxRadius * (1 + distTieTol)
	var out []refCandidate
	refGather(pos, u, idx, rr*(1+spatial.QuerySlack), func(v int) {
		if v == u || (alive != nil && !alive[v]) {
			return
		}
		if d := pos[u].Dist(pos[v]); d <= rr {
			out = append(out, refCandidate{id: v, dist: d})
		}
	})
	slices.SortFunc(out, func(a, b refCandidate) int {
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	return out
}

// linkCandidatesRef is the per-link gather: nodes within
// MaxLinkRadius·(1+distTieTol) whose link LinkInRange admits, sorted by
// (need, dist, id).
func linkCandidatesRef(pos []geom.Point, alive []bool, m radio.Propagation, u int, idx Index) []refCandidate {
	rr := m.MaxLinkRadius() * (1 + distTieTol)
	var out []refCandidate
	refGather(pos, u, idx, rr*(1+spatial.QuerySlack), func(v int) {
		if v == u || (alive != nil && !alive[v]) {
			return
		}
		if d := pos[u].Dist(pos[v]); d <= rr && m.LinkInRange(u, v, d) {
			out = append(out, refCandidate{id: v, dist: d, need: m.LinkPower(u, v, d)})
		}
	})
	slices.SortFunc(out, func(a, b refCandidate) int {
		if a.need != b.need {
			if a.need < b.need {
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
	return out
}

// sameNodeResultBits compares two NodeResults float bit for float bit.
func sameNodeResultBits(a, b NodeResult) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Boundary != b.Boundary || !same(a.GrowPower, b.GrowPower) || len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i, x := range a.Neighbors {
		y := b.Neighbors[i]
		if x.ID != y.ID || !same(x.Dist, y.Dist) || !same(x.Dir, y.Dir) || !same(x.Power, y.Power) {
			return false
		}
	}
	return true
}

const refRadius = 500

// refRadios covers the power law at three exponents with a non-unit
// reference loss next to the default one, and deterministic shadowing:
// none (the impure path on the power law's links), then two strengths at
// two seeds each.
func refRadios(t testing.TB) []radio.Propagation {
	t.Helper()
	out := []radio.Propagation{radio.Default(refRadius)}
	for _, exp := range []float64{2, 3, 4} {
		m, err := radio.NewModel(exp, refRadius, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	for _, sh := range []struct {
		sigma float64
		seed  uint64
	}{{0, 1}, {4, 1}, {4, 7}, {8, 1}, {8, 7}} {
		l, err := radio.NewLogDistance(radio.Default(refRadius), sh.sigma, sh.seed)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

var refOracleAlphas = []float64{math.Pi / 2, AlphaAsymmetric, AlphaConnectivity, math.Pi}

// refShapes is the number of placement shapes refPlacement builds.
const refShapes = 9

// refPlacement builds one placement shape around R = refRadius: uniform,
// jittered grid, clustered, an exact lattice whose spacing divides R (so
// distance ties and links of length exactly R abound), a chain at exactly
// R, Figure 5, Example 2.1, and two near-tie shapes whose equal distances
// differ in the last bits — the same lattice rotated and shifted, and a
// ring of nodes around a center node.
func refPlacement(t testing.TB, shape, seed uint64, n int) []geom.Point {
	t.Helper()
	rng := workload.Rand(seed)
	var (
		pos []geom.Point
		err error
	)
	switch shape % refShapes {
	case 0:
		pos = workload.Uniform(rng, n, 1500, 1500)
	case 1:
		pos = workload.Grid(rng, n, 40, 1500, 1500)
	case 2:
		pos = workload.Clustered(rng, n, 4, 150, 1500, 1500)
	case 3:
		side := int(math.Ceil(math.Sqrt(float64(n))))
		for i := 0; i < n; i++ {
			pos = append(pos, geom.Pt(float64(i%side)*refRadius/4, float64(i/side)*refRadius/4))
		}
	case 4:
		pos = workload.Chain(n, refRadius)
	case 5:
		pos, err = workload.Figure5(0.05, refRadius)
	case 6:
		pos, err = workload.Example21(AlphaConnectivity, refRadius)
	case 7:
		side := int(math.Ceil(math.Sqrt(float64(n))))
		origin, sin, cos := geom.Pt(1000.1, 1000.3), math.Sin(0.3+float64(seed)), math.Cos(0.3+float64(seed))
		for i := 0; i < n; i++ {
			x, y := float64(i%side)*refRadius/4, float64(i/side)*refRadius/4
			pos = append(pos, geom.Pt(origin.X+x*cos-y*sin, origin.Y+x*sin+y*cos))
		}
	default:
		center := geom.Pt(750.3, 750.7)
		pos = append(pos, center)
		for i := 1; i < n; i++ {
			pos = append(pos, center.Polar(refRadius*float64(1+i%3)/3, float64(i)*geom.TwoPi/float64(n-1)))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

// checkRunNodeMatchesRef runs every node of the placement through runNode,
// on one reused scratch so stale state would show, and through the
// reference kernels, with and without the grid and the alive mask.
func checkRunNodeMatchesRef(t *testing.T, label string, pos []geom.Point, alive []bool, m radio.Propagation, alpha float64, scr *gatherScratch) {
	t.Helper()
	for _, idx := range []Index{spatial.New(pos, m.MaxLinkRadius()), nil} {
		for u := range pos {
			got := runNode(pos, alive, m, alpha, u, idx, scr)
			want := runNodeRef(pos, alive, m, alpha, u, idx)
			if !sameNodeResultBits(got, want) {
				t.Fatalf("%s, alpha %v, node %d, index %v:\n got %+v\nwant %+v", label, alpha, u, idx != nil, got, want)
			}
		}
	}
}

// refAliveMask kills about a fifth of the nodes.
func refAliveMask(rng *rand.Rand, n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = rng.IntN(5) != 0
	}
	return alive
}

// FuzzRunNode: the one growing-phase kernel equals the per-radio reference
// kernels bit for bit on arbitrary placements, radios, cone angles, index
// choices and alive masks.
func FuzzRunNode(f *testing.F) {
	for shape := uint64(0); shape < refShapes; shape++ {
		f.Add(shape, shape*13, uint8(shape), uint8(shape), uint8(shape*5))
	}
	f.Fuzz(func(t *testing.T, shape, seed uint64, radioPick, alphaPick, size uint8) {
		radios := refRadios(t)
		m := radios[int(radioPick)%len(radios)]
		alpha := refOracleAlphas[int(alphaPick)%len(refOracleAlphas)]
		pos := refPlacement(t, shape, seed, 2+int(size)%80)
		var alive []bool
		if size&0x80 != 0 {
			alive = refAliveMask(rand.New(rand.NewPCG(seed, 1)), len(pos))
		}
		checkRunNodeMatchesRef(t, "fuzz", pos, alive, m, alpha, &gatherScratch{})
	})
}

// The ordinary test run sweeps every shape, radio and cone angle, with an
// alive mask on every third placement.
func TestRunNodeMatchesReference(t *testing.T) {
	radios := refRadios(t)
	var scr gatherScratch
	k := 0
	for shape := uint64(0); shape < refShapes; shape++ {
		for seed := uint64(0); seed < 2; seed++ {
			pos := refPlacement(t, shape, seed, 40)
			var alive []bool
			if k++; k%3 == 0 {
				alive = refAliveMask(workload.Rand(seed+100), len(pos))
			}
			for ri, m := range radios {
				for _, alpha := range refOracleAlphas {
					checkRunNodeMatchesRef(t, fmt.Sprintf("shape %d seed %d radio %d", shape, seed, ri), pos, alive, m, alpha, &scr)
				}
			}
		}
	}
}

// Every node's oracle candidates are exactly its G_R row, on the power law
// and on a shadowed radio, with and without the grid.
func TestCandidatesAreMaxPowerRows(t *testing.T) {
	pure := radio.Default(refRadius)
	shadowed, err := radio.NewLogDistance(pure, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var scr gatherScratch
	for shape := uint64(0); shape < refShapes; shape++ {
		pos := refPlacement(t, shape, 5, 120)
		for _, m := range []radio.Propagation{pure, shadowed} {
			gr := MaxPowerGraph(pos, m)
			for _, idx := range []Index{spatial.New(pos, m.MaxLinkRadius()), nil} {
				for u := range pos {
					var ids []int32
					for _, c := range gatherCandidates(pos, nil, m, m.DistancePure(), u, idx, &scr) {
						ids = append(ids, int32(c.id))
					}
					slices.Sort(ids)
					if row := gr.Row(u); !slices.Equal(ids, row) {
						t.Fatalf("shape %d, pure %v, index %v, node %d: candidates %v, G_R row %v",
							shape, m.DistancePure(), idx != nil, u, ids, row)
					}
				}
			}
		}
	}
}

// RunWithMaxPowerGraph's G_R, packed from the oracle's own candidate
// lists, equals the all-pairs reference on every shape, on the power law
// and a shadowed radio, serial and across a pool (300 nodes clear the
// stay-serial floor), and its execution is the bare oracle's. The pair
// 1+8e-13 apart at R = 1 sits inside the rule's relative slack.
func TestRunWithMaxPowerGraphMatchesReference(t *testing.T) {
	ctx := context.Background()
	pure := radio.Default(refRadius)
	shadowed, err := radio.NewLogDistance(pure, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	unit := radio.Default(1)
	unitShadowed, err := radio.NewLogDistance(unit, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		label  string
		pos    []geom.Point
		radios []radio.Propagation
	}
	var cases []tcase
	for shape := uint64(0); shape < refShapes; shape++ {
		cases = append(cases, tcase{fmt.Sprintf("shape %d", shape), refPlacement(t, shape, 11, 300), []radio.Propagation{pure, shadowed}})
	}
	cases = append(cases, tcase{"boundary pair", []geom.Point{geom.Pt(0, 0), geom.Pt(1+8e-13, 0)}, []radio.Propagation{unit, unitShadowed}})
	for _, tc := range cases {
		for _, m := range tc.radios {
			want := maxPowerGraphRef(tc.pos, m)
			bare, err := RunParallel(ctx, tc.pos, m, AlphaConnectivity, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				exec, gr, err := RunWithMaxPowerGraph(ctx, tc.pos, m, AlphaConnectivity, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !gr.Equal(want) {
					t.Fatalf("%s, pure %v, %d workers: G_R has %d edges, the reference %d",
						tc.label, m.DistancePure(), workers, gr.EdgeCount(), want.EdgeCount())
				}
				sameExecution(t, fmt.Sprintf("%s, pure %v, %d workers", tc.label, m.DistancePure(), workers), bare, exec)
			}
		}
	}
	if g := maxPowerGraphRef([]geom.Point{geom.Pt(0, 0), geom.Pt(1+8e-13, 0)}, unit); g.EdgeCount() != 1 {
		t.Fatalf("the boundary pair must be one G_R link at R = 1, got %d edges", g.EdgeCount())
	}
}
