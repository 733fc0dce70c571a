package cbtc_test

import (
	"context"
	"fmt"

	"cbtc"
)

// Build a topology with the paper's tight connectivity bound and all
// optimizations.
func ExampleEngine_Run() {
	nodes := []cbtc.Point{
		cbtc.Pt(0, 0), cbtc.Pt(300, 0), cbtc.Pt(150, 250), cbtc.Pt(450, 200),
	}
	eng, err := cbtc.New(cbtc.WithMaxRadius(400), cbtc.WithAllOptimizations())
	if err != nil {
		panic(err)
	}
	res, err := eng.Run(context.Background(), nodes)
	if err != nil {
		panic(err)
	}
	fmt.Println("edges:", res.G.EdgeCount())
	fmt.Println("connectivity preserved:", res.PreservesConnectivity())
	// Output:
	// edges: 3
	// connectivity preserved: true
}

// Compare against a position-based baseline from the related work.
func ExampleEngine_Baseline() {
	nodes := []cbtc.Point{
		cbtc.Pt(0, 0), cbtc.Pt(100, 0), cbtc.Pt(50, 10),
	}
	eng, err := cbtc.New(cbtc.WithMaxRadius(400))
	if err != nil {
		panic(err)
	}
	res, err := eng.Baseline(cbtc.BaselineRNG, nodes)
	if err != nil {
		panic(err)
	}
	// The long 0-1 edge has a witness (node 2) and is eliminated.
	fmt.Println("0-1 present:", res.G.HasEdge(0, 1))
	fmt.Println("edges:", res.G.EdgeCount())
	// Output:
	// 0-1 present: false
	// edges: 2
}

// The asymmetric edge removal optimization is guarded by Theorem 3.2's
// angle bound.
func ExampleWithAllOptimizations() {
	at23, err := cbtc.New(cbtc.WithMaxRadius(400), cbtc.WithAlpha(cbtc.AlphaAsymmetric), cbtc.WithAllOptimizations())
	if err != nil {
		panic(err)
	}
	at56, err := cbtc.New(cbtc.WithMaxRadius(400), cbtc.WithAlpha(cbtc.AlphaConnectivity), cbtc.WithAllOptimizations())
	if err != nil {
		panic(err)
	}
	fmt.Println("asym removal at 2π/3:", at23.Config().AsymmetricRemoval)
	fmt.Println("asym removal at 5π/6:", at56.Config().AsymmetricRemoval)
	// Output:
	// asym removal at 2π/3: true
	// asym removal at 5π/6: false
}
