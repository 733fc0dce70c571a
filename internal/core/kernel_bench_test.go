package core

import (
	"testing"

	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// kernelBenchRadios are the per-node kernel benchmarks' radios at the
// paper's R: the free-space power law, and LogDistance shadowing at
// σ = 4 dB, whose discovery key is the needed link power.
func kernelBenchRadios(b *testing.B) []struct {
	name string
	m    radio.Propagation
} {
	b.Helper()
	pure := radio.Default(workload.PaperRadius)
	shadowed, err := radio.NewLogDistance(pure, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		m    radio.Propagation
	}{{"pure", pure}, {"sigma=4dB", shadowed}}
}

// kernelSink keeps the benchmarked kernels' results observable.
var kernelSink []Discovery

// BenchmarkGrowingPhase times the growing phase session repair runs on
// every recomputed node: RunNodeRow over each node's G_R row, for all
// 1000 nodes of a paper-density placement per op, staged in the
// runner's buffer, which each op starts over as a repair batch does. At
// that density a node holds about 32 candidates and admits about 7.
func BenchmarkGrowingPhase(b *testing.B) {
	pos := workload.Fleet(1, 1000, "uniform").Placements(13)[0]
	for _, rc := range kernelBenchRadios(b) {
		b.Run(rc.name, func(b *testing.B) {
			gr := MaxPowerGraph(pos, rc.m)
			var r NodeRunner
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r.ResetStage()
				for u := range pos {
					kernelSink = r.RunNodeRow(pos, rc.m, AlphaConnectivity, u, gr.Row(u)).Neighbors
				}
			}
		})
	}
}

// BenchmarkShrinkBoundary times the shrink-back kernel on the rows it
// does real work on: the boundary rows of the same placement, whose
// full set leaves an α-gap, so every level test merges arcs. Each op
// shrinks every boundary row into one reused buffer.
func BenchmarkShrinkBoundary(b *testing.B) {
	pos := workload.Fleet(1, 1000, "uniform").Placements(13)[0]
	for _, rc := range kernelBenchRadios(b) {
		b.Run(rc.name, func(b *testing.B) {
			exec, err := Run(pos, rc.m, AlphaConnectivity)
			if err != nil {
				b.Fatal(err)
			}
			var rows [][]Discovery
			for _, nr := range exec.Nodes {
				if nr.Boundary && len(nr.Neighbors) > 0 {
					rows = append(rows, nr.Neighbors)
				}
			}
			if len(rows) == 0 {
				b.Fatal("the placement has no boundary rows")
			}
			var (
				r   NodeRunner
				dst []Discovery
			)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for _, row := range rows {
					dst = r.ShrinkNeighborsInto(dst, row, AlphaConnectivity)
				}
			}
			kernelSink = dst
			b.ReportMetric(float64(len(rows)), "rows/op")
		})
	}
}
