package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
)

// This file keeps the from-scratch coverage implementation the
// shrink-back and §4 shrink code used before the geom.Cover kernel: every
// comparison rebuilds both arc sets (normalize, sort, merge, rotate the
// split arc at 0). The tests below require the kernel-backed code to make
// exactly the same decisions.

type refArc struct{ start, end float64 }

// refCover is cover_α(dirs): full, or a sorted merged arc list (empty
// for no directions).
type refCover struct {
	full bool
	arcs []refArc
}

func refCoverage(dirs []float64, alpha float64) refCover {
	if len(dirs) == 0 {
		return refCover{}
	}
	if alpha >= geom.TwoPi || !geom.HasGap(dirs, alpha) {
		return refCover{full: true}
	}
	half := alpha / 2
	raw := make([]refArc, 0, len(dirs)+1)
	for _, d := range dirs {
		start := geom.Normalize(d - half)
		end := start + alpha
		if end > geom.TwoPi {
			raw = append(raw, refArc{start, geom.TwoPi}, refArc{0, end - geom.TwoPi})
		} else {
			raw = append(raw, refArc{start, end})
		}
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].start < raw[j].start })
	merged := raw[:1]
	for _, a := range raw[1:] {
		last := &merged[len(merged)-1]
		if a.start <= last.end+geom.Eps {
			if a.end > last.end {
				last.end = a.end
			}
		} else {
			merged = append(merged, a)
		}
	}
	return refCover{arcs: merged}
}

func (s refCover) canonical() []refArc {
	if len(s.arcs) < 2 {
		return s.arcs
	}
	first, last := s.arcs[0], s.arcs[len(s.arcs)-1]
	if first.start <= geom.Eps && last.end >= geom.TwoPi-geom.Eps {
		merged := make([]refArc, 0, len(s.arcs)-1)
		merged = append(merged, refArc{last.start - geom.TwoPi, first.end})
		merged = append(merged, s.arcs[1:len(s.arcs)-1]...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].start < merged[j].start })
		return merged
	}
	return s.arcs
}

func (s refCover) equal(o refCover) bool {
	if s.full || o.full {
		return s.full == o.full
	}
	a, b := s.canonical(), o.canonical()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].start-b[i].start) > 10*geom.Eps || math.Abs(a[i].end-b[i].end) > 10*geom.Eps {
			return false
		}
	}
	return true
}

func refDirs(list []Discovery) []float64 {
	ds := make([]float64, len(list))
	for i, nb := range list {
		ds[i] = nb.Dir
	}
	return ds
}

// shrinkNeighborsRef is ShrinkNeighbors on from-scratch coverage.
func shrinkNeighborsRef(neighbors []Discovery, alpha float64) []Discovery {
	if len(neighbors) == 0 {
		return neighbors
	}
	sorted := append([]Discovery(nil), neighbors...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Power != sorted[j].Power {
			return sorted[i].Power < sorted[j].Power
		}
		if sorted[i].Dist != sorted[j].Dist {
			return sorted[i].Dist < sorted[j].Dist
		}
		return sorted[i].ID < sorted[j].ID
	})
	allDirs := refDirs(sorted)
	full := refCoverage(allDirs, alpha)
	i := 0
	for i < len(sorted) {
		levelEnd := i + 1
		for levelEnd < len(sorted) && samePower(sorted[levelEnd].Power, sorted[i].Power) {
			levelEnd++
		}
		if refCoverage(allDirs[:levelEnd], alpha).equal(full) {
			return sorted[:levelEnd]
		}
		i = levelEnd
	}
	return sorted
}

// refReconfigurator is the §4 state machine with from-scratch coverage
// in shrink: each removal test re-sorts the directions and rebuilds both
// arc sets.
type refReconfigurator struct {
	alpha float64
	nbrs  []Discovery
}

func newRefReconfigurator(alpha float64, initial []Discovery) *refReconfigurator {
	r := &refReconfigurator{alpha: alpha}
	for _, d := range initial {
		r.set(d)
	}
	return r
}

func (r *refReconfigurator) find(id int) (int, bool) {
	return slices.BinarySearchFunc(r.nbrs, id, func(d Discovery, id int) int { return d.ID - id })
}

func (r *refReconfigurator) set(d Discovery) {
	if i, ok := r.find(d.ID); ok {
		r.nbrs[i] = d
	} else {
		r.nbrs = slices.Insert(r.nbrs, i, d)
	}
}

func (r *refReconfigurator) sortedDirs() []float64 {
	var out []float64
	for _, d := range r.nbrs {
		out = geom.InsertSorted(out, d.Dir)
	}
	return out
}

func (r *refReconfigurator) Leave(id int) Action {
	i, ok := r.find(id)
	if !ok {
		return ActionNone
	}
	r.nbrs = slices.Delete(r.nbrs, i, i+1)
	if geom.HasGapSorted(r.sortedDirs(), r.alpha) {
		return ActionRegrow
	}
	return ActionNone
}

func (r *refReconfigurator) Join(d Discovery) Action {
	r.set(d)
	r.shrink()
	return ActionNone
}

func (r *refReconfigurator) AngleChange(id int, newDir float64) Action {
	i, ok := r.find(id)
	if !ok {
		return ActionNone
	}
	r.nbrs[i].Dir = geom.Normalize(newDir)
	if geom.HasGapSorted(r.sortedDirs(), r.alpha) {
		return ActionRegrow
	}
	r.shrink()
	return ActionNone
}

func (r *refReconfigurator) shrink() {
	dist := append([]Discovery(nil), r.nbrs...)
	slices.SortFunc(dist, func(a, b Discovery) int {
		if a.Dist != b.Dist {
			if a.Dist > b.Dist {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	full := refCoverage(r.sortedDirs(), r.alpha)
	for _, d := range dist {
		i, ok := r.find(d.ID)
		if !ok {
			continue
		}
		r.nbrs = slices.Delete(r.nbrs, i, i+1)
		if !refCoverage(r.sortedDirs(), r.alpha).equal(full) {
			r.set(d)
			return
		}
	}
}

// refAlphas are the cone angles the reference tests draw from: the
// paper's 5π/6 and 2π/3, π/2, π, a narrow cone and the full circle.
var refAlphas = []float64{5 * math.Pi / 6, 2 * math.Pi / 3, math.Pi / 2, math.Pi, 0.3, geom.TwoPi}

// refDir draws a bearing on a 2π/12 grid, on multiples of 5π/12 (which
// leave [0, 2π)), or uniformly: the grids make exact ties and gaps of
// exactly α.
func refDir(rng *rand.Rand) float64 {
	switch rng.IntN(3) {
	case 0:
		return float64(rng.IntN(12)) * geom.TwoPi / 12
	case 1:
		return float64(rng.IntN(24)) * 5 * math.Pi / 12
	default:
		return rng.Float64() * geom.TwoPi
	}
}

// refNeighbors draws 1–20 neighbors with distinct ids, distances on a
// coarse grid (so ties occur) and powers in a few levels, as the
// oracle's distance groups and the quantized schedules produce.
func refNeighbors(rng *rand.Rand) []Discovery {
	n := 1 + rng.IntN(20)
	levels := 1 + rng.IntN(6)
	out := make([]Discovery, n)
	for i := range out {
		lvl := rng.IntN(levels)
		out[i] = Discovery{
			ID:    rng.IntN(1000)*32 + i, // distinct
			Dist:  float64(10*(1+lvl) + rng.IntN(3)),
			Dir:   refDir(rng),
			Power: float64(1 + lvl),
		}
	}
	return out
}

func requireSameDiscoveries(t *testing.T, what string, got, want []Discovery) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
	}
}

// FuzzShrinkNeighbors: the kernel-backed ShrinkNeighbors returns exactly
// the from-scratch reference's lists, on random neighbor sets of every
// shape.
func FuzzShrinkNeighbors(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed, byte(0))
	}
	f.Add(uint64(3), byte(5))
	f.Fuzz(func(t *testing.T, seed uint64, pick byte) {
		rng := rand.New(rand.NewPCG(seed, uint64(pick)))
		alpha := refAlphas[int(pick)%len(refAlphas)]
		nbrs := refNeighbors(rng)
		requireSameDiscoveries(t, "ShrinkNeighbors", ShrinkNeighbors(nbrs, alpha), shrinkNeighborsRef(nbrs, alpha))
	})
}

// The ordinary test run sweeps far more inputs than the fuzz seeds,
// through one reused NodeRunner so stale scratch would show, shrinking
// each input both into a fresh slice and into one reused buffer.
func TestShrinkNeighborsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	var runner NodeRunner
	var buf []Discovery
	for iter := 0; iter < 20000; iter++ {
		alpha := refAlphas[rng.IntN(len(refAlphas))]
		nbrs := refNeighbors(rng)
		want := shrinkNeighborsRef(nbrs, alpha)
		requireSameDiscoveries(t, "ShrinkNeighborsInto(nil)", runner.ShrinkNeighborsInto(nil, nbrs, alpha), want)
		buf = runner.ShrinkNeighborsInto(buf, nbrs, alpha)
		requireSameDiscoveries(t, "ShrinkNeighborsInto(reused)", buf, want)
	}
}

// ShrinkGrown equals the kernel on every row the growing phase
// yields — pure and shadowed, tags quantized or not, at α = 2π/3 and
// 5π/6 — and a row it keeps is the node row itself. The counts of rows
// on each path keep the test from passing vacuously, and a hand-built
// shadowed group whose members arrive farthest first must go to the
// kernel, which reorders it.
func TestShrinkGrownMatchesKernel(t *testing.T) {
	pure := radio.Default(refRadius)
	shadowed, err := radio.NewLogDistance(pure, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := radio.Multiplicative(1.5)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := radio.Schedule(pure.MaxPower()/1024, pure.MaxPower(), inc)
	if err != nil {
		t.Fatal(err)
	}
	var runner NodeRunner
	kept, kernel := 0, 0
	for shape := uint64(0); shape < refShapes; shape++ {
		pos := refPlacement(t, shape, 3, 80)
		grid := spatial.New(pos, shadowed.MaxLinkRadius())
		for _, m := range []radio.Propagation{pure, shadowed} {
			for _, quantized := range []bool{false, true} {
				for _, alpha := range []float64{AlphaAsymmetric, AlphaConnectivity} {
					for u := range pos {
						nr := runner.RunNode(pos, nil, m, alpha, u, grid)
						if quantized {
							QuantizeNeighbors(nr.Neighbors, schedule)
						}
						got := runner.ShrinkGrown(nr, alpha)
						requireSameDiscoveries(t, "ShrinkGrown", got, ShrinkNeighbors(nr.Neighbors, alpha))
						if !keepsGrownRow(nr) {
							kernel++
							continue
						}
						kept++
						if len(got) > 0 && &got[0] != &nr.Neighbors[0] {
							t.Fatalf("shape %d node %d: a kept row must be the node row itself", shape, u)
						}
					}
				}
			}
		}
	}
	t.Logf("%d rows kept whole without the kernel, %d sent to it", kept, kernel)
	if kept == 0 || kernel == 0 {
		t.Fatalf("every row took one path: %d kept, %d to the kernel", kept, kernel)
	}

	// One shadowed group, so one Power tag, covering the circle; its keys
	// lie within tolerance but its distances descend, out of shrink order.
	p := shadowed.LinkPower(0, 1, 300)
	nr := NodeResult{Neighbors: []Discovery{
		{ID: 1, Dist: 300, Dir: 0, Power: p},
		{ID: 2, Dist: 200, Dir: 2.1, Power: p},
		{ID: 3, Dist: 100, Dir: 4.2, Power: p},
	}, GrowPower: p}
	if keepsGrownRow(nr) {
		t.Fatal("a row out of shrink order took the fast path")
	}
	got := runner.ShrinkGrown(nr, AlphaConnectivity)
	requireSameDiscoveries(t, "reversed group", got, ShrinkNeighbors(nr.Neighbors, AlphaConnectivity))
	if got[0].ID != 3 {
		t.Fatalf("the kernel keeps the group in (Power, Dist, ID) order: %v", got)
	}
}

// Random 30-step Join/Leave/AngleChange histories drive the kernel-backed
// Reconfigurator and the from-scratch reference side by side: every
// action and every neighbor set after every step must be identical.
// Every other history reuses one machine through Reset, so stale
// buffers would show.
func TestReconfiguratorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2))
	m := radio.Default(500)
	var reused Reconfigurator
	for hist := 0; hist < 3000; hist++ {
		alpha := refAlphas[rng.IntN(len(refAlphas))]
		initial := refNeighbors(rng)
		got := NewReconfigurator(alpha, m, initial)
		if hist%2 == 1 {
			reused.Reset(alpha, m, initial)
			got = &reused
		}
		want := newRefReconfigurator(alpha, initial)
		for step := 0; step < 30; step++ {
			what, ga, wa := refStep(rng, m, got, want)
			if ga != wa {
				t.Fatalf("history %d step %d (%s, alpha=%v): action %v, reference %v", hist, step, what, alpha, ga, wa)
			}
			requireSameDiscoveries(t, what, got.Neighbors(), want.nbrs)
		}
	}
}

// An initial list that repeats IDs builds the set the reference's
// one-by-one inserts leave, each repeated ID keeping its last entry,
// through NewReconfigurator, a reused machine's Reset and a pool's Get.
func TestReconfiguratorResetRepeatedIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 4))
	m := radio.Default(500)
	var reused Reconfigurator
	var pool MachinePool
	for hist := 0; hist < 1000; hist++ {
		alpha := refAlphas[rng.IntN(len(refAlphas))]
		initial := refNeighbors(rng)
		for k := 1 + rng.IntN(4); k > 0; k-- {
			d := initial[rng.IntN(len(initial))]
			d.Dist++
			d.Dir = refDir(rng)
			initial = slices.Insert(initial, rng.IntN(len(initial)+1), d)
		}
		want := newRefReconfigurator(alpha, initial).nbrs
		requireSameDiscoveries(t, "NewReconfigurator", NewReconfigurator(alpha, m, initial).Neighbors(), want)
		reused.Reset(alpha, m, initial)
		requireSameDiscoveries(t, "Reset", reused.Neighbors(), want)
		pool.Release()
		requireSameDiscoveries(t, "MachinePool.Get", pool.Get(alpha, m, initial).Neighbors(), want)
	}
}

// refStep applies one random Join, Leave or AngleChange to a machine
// and its reference, returning the event's name and both actions.
func refStep(rng *rand.Rand, m radio.Model, got *Reconfigurator, want *refReconfigurator) (string, Action, Action) {
	switch k := rng.IntN(3); {
	case k == 0 || len(want.nbrs) == 0:
		d := Discovery{ID: rng.IntN(40) * 32, Dist: float64(10 + rng.IntN(60)), Dir: refDir(rng)}
		d.Power = m.PowerFor(d.Dist)
		return "join", got.Join(d), want.Join(d)
	case k == 1:
		id := want.nbrs[rng.IntN(len(want.nbrs))].ID
		return "leave", got.Leave(id), want.Leave(id)
	default:
		id := want.nbrs[rng.IntN(len(want.nbrs))].ID
		dir := refDir(rng)
		return "angle change", got.AngleChange(id, dir), want.AngleChange(id, dir)
	}
}

// Machines from one MachinePool share their scratch and take their
// neighbor sets from one arena. Driven in turn through random
// histories whose joins outgrow their arena regions, over many Release
// cycles, every machine must match its reference after every step of
// any machine.
func TestMachinePoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	m := radio.Default(500)
	var pool MachinePool
	for cycle := 0; cycle < 300; cycle++ {
		pool.Release()
		alpha := refAlphas[rng.IntN(len(refAlphas))]
		got := make([]*Reconfigurator, 1+rng.IntN(8))
		want := make([]*refReconfigurator, len(got))
		for i := range got {
			initial := refNeighbors(rng)
			got[i] = pool.Get(alpha, m, initial)
			want[i] = newRefReconfigurator(alpha, initial)
		}
		for step := 0; step < 40; step++ {
			i := rng.IntN(len(got))
			what, ga, wa := refStep(rng, m, got[i], want[i])
			if ga != wa {
				t.Fatalf("cycle %d step %d machine %d (%s, alpha=%v): action %v, reference %v", cycle, step, i, what, alpha, ga, wa)
			}
			for j := range got {
				requireSameDiscoveries(t, what, got[j].Neighbors(), want[j].nbrs)
			}
		}
	}
}
