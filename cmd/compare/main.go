// Command compare runs CBTC (all optimization stacks) next to the
// position-based topology-control baselines from the paper's
// related-work section — relative neighborhood graph, Gabriel graph,
// Yao/θ-graph, and the centralized min-max-radius assignment — on the
// same random network, reporting degree, radius, route stretch,
// interference and robustness for each.
//
// Usage:
//
//	compare [-n 100] [-width 1500] [-height 1500] [-radius 500] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"cbtc"
	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

func main() {
	n := flag.Int("n", 100, "number of nodes")
	width := flag.Float64("width", 1500, "region width")
	height := flag.Float64("height", 1500, "region height")
	radius := flag.Float64("radius", 500, "maximum transmission radius R")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	nodes := workload.Uniform(workload.Rand(*seed), *n, *width, *height)
	rows, err := cbtc.CompareBaselines(ctx, nodes, *radius)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}

	fmt.Printf("topology comparison: %d nodes, %gx%g region, R=%g, seed=%d\n\n",
		*n, *width, *height, *radius, *seed)
	tb := stats.NewTable("topology", "edges", "deg", "radius", "maxrad",
		"power-stretch", "hop-stretch", "avg-intf", "diam", "biconn", "connected")
	for _, row := range rows {
		r := row.Result
		tb.AddRow(row.Name,
			fmt.Sprint(r.G.EdgeCount()),
			stats.F(r.AvgDegree, 1),
			stats.F(r.AvgRadius, 0),
			stats.F(r.MaxRadius(), 0),
			stats.F(r.PowerStretch(), 2),
			stats.F(r.HopStretch(), 2),
			stats.F(r.AvgInterference(), 1),
			fmt.Sprint(r.Diameter()),
			fmt.Sprint(r.IsBiconnected()),
			fmt.Sprint(r.PreservesConnectivity()))
	}
	fmt.Print(tb.String())
	fmt.Println("\nCBTC uses only angle-of-arrival information; the baselines require")
	fmt.Println("exact positions. The min-max-radius row is the centralized optimum")
	fmt.Println("for the maximum radius; its value equals the G_R bottleneck:",
		stats.F(rows[0].Result.BottleneckRadius(), 0))
}
