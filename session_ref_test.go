package cbtc

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/workload"
)

// referenceSnapshot is a session snapshot rebuilt from scratch, bypassing
// every maintained graph: core.BuildTopology with the engine's stack over
// the installed growing-phase rows, and G_R from
// core.MaxPowerGraphParallel with departed nodes isolated. Snapshot must
// equal it; BenchmarkLargeN's session-snapshot-full times it.
func referenceSnapshot(tb testing.TB, s *Session) *Result {
	tb.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	exec := &core.Execution{
		Alpha:         s.eng.cfg.Alpha,
		Model:         s.eng.model,
		LinkDependent: !s.eng.prop.DistancePure(),
		Pos:           append([]Point(nil), s.pos...),
		Nodes:         append([]core.NodeResult(nil), s.nodes...),
	}
	topo, err := core.BuildTopology(exec, s.eng.opts)
	if err != nil {
		tb.Fatal(err)
	}
	gr := core.MaxPowerGraphParallel(s.pos, s.eng.prop, s.workers)
	for u, alive := range s.alive {
		if !alive {
			gr.IsolateNode(u)
		}
	}
	return newResultWithGR(s.pos, s.eng.model, topo, gr)
}

// observeGraph computes TickStats from scratch over g — the reference
// full-scan path: a component BFS plus a fresh per-node radius pass. It
// is the oracle the maintained Observe is tested (and benchmarked)
// against.
func observeGraph(g *graph.Graph, alive []bool, pos []Point, nodes []core.NodeResult) TickStats {
	ts := TickStats{Edges: g.EdgeCount(), Components: liveComponents(g, alive)}
	for u, a := range alive {
		if !a {
			continue
		}
		ts.Live++
		ts.AvgRadius += graph.NodeRadius(g, pos, u)
		ts.Energy += nodes[u].GrowPower
	}
	if ts.Live > 0 {
		ts.AvgDegree = 2 * float64(ts.Edges) / float64(ts.Live)
		ts.AvgRadius /= float64(ts.Live)
	}
	return ts
}

// liveComponents counts the connected components of g restricted to the
// live nodes. Edges never touch departed nodes (repairs isolate them),
// so a BFS seeded at live nodes only ever visits live nodes.
func liveComponents(g *graph.Graph, alive []bool) int {
	visited := make([]bool, g.Len())
	var stack []int32
	count := 0
	for u, live := range alive {
		if !live || visited[u] {
			continue
		}
		count++
		visited[u] = true
		stack = append(stack[:0], int32(u))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Row(int(x)) {
				if !visited[v] {
					visited[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return count
}

// TestSessionSnapshotMatchesReference drives random ticks on every
// option stack — each pairwise policy, and pairwise removal under
// shadowing, tag quantization, asymmetric removal and a battery — and
// requires the maintained snapshot to equal the from-scratch reference
// after every tick: graphs, radii, powers, aggregates, the removed
// redundant edges, and every node's beacon power and directed neighbors.
func TestSessionSnapshotMatchesReference(t *testing.T) {
	stacks := []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithMaxRadius(500)}},
		{"shrink-back", []Option{WithMaxRadius(500), WithShrinkBack()}},
		{"asym", []Option{WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithShrinkBack(), WithAsymmetricRemoval()}},
		{"length-filtered", []Option{WithMaxRadius(500), WithAllOptimizations()}},
		{"remove-all", []Option{WithMaxRadius(500), WithShrinkBack(), WithPairwiseRemoval(PairwiseRemoveAll)}},
		{"either-endpoint", []Option{WithMaxRadius(500), WithShrinkBack(), WithPairwiseRemoval(PairwiseEitherEndpoint)}},
		{"both-endpoints", []Option{WithMaxRadius(500), WithShrinkBack(), WithPairwiseRemoval(PairwiseBothEndpoints)}},
		{"pairwise-basic", []Option{WithMaxRadius(500), WithPairwiseRemoval(PairwiseLengthFiltered)}},
		{"pairwise-shadowed", []Option{WithMaxRadius(500), WithAllOptimizations(), WithShadowing(6, 3)}},
		{"pairwise-quantized", []Option{WithMaxRadius(500), WithAllOptimizations(), WithShrinkBackSchedule(1.5)}},
		{"pairwise-asym", []Option{WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithAllOptimizations()}},
		{"pairwise-battery", []Option{WithMaxRadius(500), WithAllOptimizations(), WithBattery(1e12, 1)}},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			t.Parallel()
			eng, err := New(st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(context.Background(), someNetwork(61, 60))
			if err != nil {
				t.Fatal(err)
			}
			rng := workload.Rand(67)
			for tick := 0; tick <= 30; tick++ {
				if tick > 0 {
					if _, _, err := sess.Tick(randomBatch(rng, sess, 1+rng.IntN(6), 1500)); err != nil {
						t.Fatal(err)
					}
				}
				snap, err := sess.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				requireSnapshotMatchesReference(t, fmt.Sprintf("tick %d", tick), referenceSnapshot(t, sess), snap)
			}
		})
	}
}

func requireSnapshotMatchesReference(t *testing.T, step string, want, got *Result) {
	t.Helper()
	requireResultsIdentical(t, want, got)
	if !slices.Equal(got.RemovedRedundant(), want.RemovedRedundant()) {
		t.Fatalf("%s: removed redundant edges %v, reference %v", step, got.RemovedRedundant(), want.RemovedRedundant())
	}
	for u := range want.Pos {
		if a, b := got.BeaconPower(u), want.BeaconPower(u); a != b {
			t.Fatalf("%s: node %d beacon power %v, reference %v", step, u, a, b)
		}
		if a, b := got.DirectedNeighbors(u), want.DirectedNeighbors(u); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: node %d directed neighbors %v, reference %v", step, u, a, b)
		}
	}
}
