package core

import (
	"math"
	"testing"

	"cbtc/internal/radio"
	"cbtc/internal/spatial"
	"cbtc/internal/workload"
)

// The §4 shrink runs on the Reconfigurator's own coverage kernel and
// direction scratch. These tests pin a warmed machine's AngleChange and
// Join at zero allocations; both repeat an event whose shrink keeps
// every neighbor, so the state is the same before and after each call.

func TestReconfiguratorAngleChangeAllocationFree(t *testing.T) {
	m := defaultModel()
	// Four quadrants at α = 5π/6 cover the circle, and each one is needed:
	// the farthest-first removal test fails at once and restores it.
	r := NewReconfigurator(AlphaConnectivity, m, fourQuadrantNeighbors(m))
	dir := r.Directions()[0]
	if got := r.AngleChange(1, dir); got != ActionNone || len(r.Neighbors()) != 4 {
		t.Fatalf("warm-up AngleChange = %v with %d neighbors, want none with 4", got, len(r.Neighbors()))
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = r.AngleChange(1, dir)
	}); avg != 0 {
		t.Fatalf("warmed AngleChange allocates %.1f per call, want 0", avg)
	}
}

func TestReconfiguratorJoinAllocationFree(t *testing.T) {
	m := defaultModel()
	// Two neighbors leave a gap, so shrink compares merged arc lists; the
	// farther one's arc is needed and is restored.
	near := Discovery{ID: 1, Dist: 100, Dir: 0.5, Power: m.PowerFor(100)}
	far := Discovery{ID: 2, Dist: 200, Dir: 0.5 + math.Pi/2, Power: m.PowerFor(200)}
	r := NewReconfigurator(AlphaConnectivity, m, []Discovery{near, far})
	if !r.HasGap() {
		t.Fatal("two neighbors at α = 5π/6 must leave a gap")
	}
	r.Join(far) // warm the kernel's arc scratch
	if len(r.Neighbors()) != 2 {
		t.Fatalf("rejoining a needed neighbor left %d neighbors, want 2", len(r.Neighbors()))
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = r.Join(far)
	}); avg != 0 {
		t.Fatalf("warmed Join allocates %.1f per call, want 0", avg)
	}
}

// The G_R builder gathers into per-worker scratch and packs the half rows
// into one growing arena, so over a prebuilt grid its allocations follow
// the arena's doublings, not the node count: one ceiling holds at the
// paper's 100 nodes and at 1000 nodes of the same density (about 27 and
// 35; a per-node row or query slice would be hundreds and thousands).
func TestMaxPowerGraphIndexedAllocations(t *testing.T) {
	const ceiling = 48
	m := radio.Default(workload.PaperRadius)
	for _, n := range []int{100, 1000} {
		side := workload.LargeNSide(n)
		pos := workload.Uniform(workload.Rand(uint64(n)), n, side, side)
		grid := spatial.New(pos, m.MaxLinkRadius())
		if avg := testing.AllocsPerRun(20, func() {
			_ = MaxPowerGraphParallelIndexed(pos, m, grid, 1)
		}); avg > ceiling {
			t.Fatalf("n = %d: MaxPowerGraphParallelIndexed allocates %.0f times per build, ceiling %d", n, avg, ceiling)
		}
	}
}
