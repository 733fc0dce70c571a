package core

import (
	"context"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
	"cbtc/internal/workload"
)

func sameExecution(t *testing.T, label string, a, b *Execution) {
	t.Helper()
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("%s: node counts diverge: %d vs %d", label, len(a.Nodes), len(b.Nodes))
	}
	for u := range a.Nodes {
		na, nb := a.Nodes[u], b.Nodes[u]
		if na.GrowPower != nb.GrowPower || na.Boundary != nb.Boundary {
			t.Fatalf("%s: node %d outcome diverges: (%v,%v) vs (%v,%v)",
				label, u, na.GrowPower, na.Boundary, nb.GrowPower, nb.Boundary)
		}
		if len(na.Neighbors) != len(nb.Neighbors) {
			t.Fatalf("%s: node %d neighbor counts diverge: %d vs %d",
				label, u, len(na.Neighbors), len(nb.Neighbors))
		}
		for i := range na.Neighbors {
			if na.Neighbors[i] != nb.Neighbors[i] {
				t.Fatalf("%s: node %d neighbor %d diverges: %+v vs %+v",
					label, u, i, na.Neighbors[i], nb.Neighbors[i])
			}
		}
	}
}

// TestOracleGridMatchesNaive is the oracle half of the naive-vs-grid
// equivalence guarantee: the grid-backed candidate gather produces an
// Execution identical — every neighbor, tag, power, boundary flag — to
// the full placement scan, across densities and cone angles, including
// exact-distance tie constructions.
func TestOracleGridMatchesNaive(t *testing.T) {
	ctx := context.Background()
	m := radio.Default(workload.PaperRadius)
	for _, tc := range []struct {
		name string
		pos  []geom.Point
	}{
		{"sparse", workload.Uniform(workload.Rand(1), 60, 6000, 6000)},
		{"paper-density", workload.Uniform(workload.Rand(2), 100, 1500, 1500)},
		{"dense", workload.Uniform(workload.Rand(3), 120, 700, 700)},
		{"clustered", workload.Clustered(workload.Rand(4), 120, 5, 200, 3000, 3000)},
		{"chain-exact-R", workload.Chain(20, workload.PaperRadius)},
		{"ring-ties", workload.Ring(24, workload.PaperRadius/2, 2000, 2000)},
	} {
		for _, alpha := range []float64{AlphaConnectivity, AlphaAsymmetric} {
			naive, err := RunNaive(ctx, tc.pos, m, alpha)
			if err != nil {
				t.Fatalf("%s: naive: %v", tc.name, err)
			}
			grid, err := RunContext(ctx, tc.pos, m, alpha)
			if err != nil {
				t.Fatalf("%s: grid: %v", tc.name, err)
			}
			sameExecution(t, tc.name, naive, grid)
		}
	}
}

// maxPowerGraphRef is G_R by the naive all-pairs scan under the
// max-power link rule: the reference every grid-backed build must match.
func maxPowerGraphRef(pos []geom.Point, m radio.Propagation) *graph.Graph {
	rr, _ := maxPowerRadii(m)
	pure := m.DistancePure()
	rows := make([][]int32, len(pos))
	for u := range pos {
		for v := u + 1; v < len(pos); v++ {
			if inMaxRange(m, pure, rr, u, v, pos[u].Dist(pos[v])) {
				rows[u] = append(rows[u], int32(v))
			}
		}
	}
	return graph.NewFromHalfRows(rows)
}

// TestMaxPowerGraphGridMatchesNaive pins G_R construction to the naive
// all-pairs edge set.
func TestMaxPowerGraphGridMatchesNaive(t *testing.T) {
	m := radio.Default(workload.PaperRadius)
	for seed := uint64(0); seed < 5; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 150, 2000, 2000)
		naive := maxPowerGraphRef(pos, m)
		grid := MaxPowerGraph(pos, m)
		ne, ge := naive.Edges(), grid.Edges()
		if len(ne) != len(ge) {
			t.Fatalf("seed %d: edge counts diverge: %d vs %d", seed, len(ne), len(ge))
		}
		for i := range ne {
			if ne[i] != ge[i] {
				t.Fatalf("seed %d: edge %d diverges: %v vs %v", seed, i, ne[i], ge[i])
			}
		}
	}
}

// TestRunNodeAliveMaskWithIndex checks that the alive mask and a live-only
// index compose: a grid holding only live nodes and a full grid with the
// mask applied both match the naive masked scan.
func TestRunNodeAliveMaskWithIndex(t *testing.T) {
	m := radio.Default(workload.PaperRadius)
	pos := workload.Uniform(workload.Rand(11), 80, 1500, 1500)
	alive := make([]bool, len(pos))
	for i := range alive {
		alive[i] = i%3 != 0
	}
	full := spatial.New(pos, m.MaxRadius)
	liveOnly := spatial.New(pos, m.MaxRadius)
	for i, ok := range alive {
		if !ok {
			liveOnly.Remove(i)
		}
	}
	for u := range pos {
		if !alive[u] {
			continue
		}
		want := RunNode(pos, alive, m, AlphaConnectivity, u, nil)
		gotFull := RunNode(pos, alive, m, AlphaConnectivity, u, full)
		gotLive := RunNode(pos, alive, m, AlphaConnectivity, u, liveOnly)
		for _, got := range []NodeResult{gotFull, gotLive} {
			if got.GrowPower != want.GrowPower || got.Boundary != want.Boundary || len(got.Neighbors) != len(want.Neighbors) {
				t.Fatalf("node %d: masked results diverge: %+v vs %+v", u, got, want)
			}
			for i := range want.Neighbors {
				if got.Neighbors[i] != want.Neighbors[i] {
					t.Fatalf("node %d neighbor %d diverges: %+v vs %+v", u, i, got.Neighbors[i], want.Neighbors[i])
				}
			}
		}
	}
}
