package graph

import (
	"math/rand/v2"
	"testing"
)

// This file keeps E_α and E⁻_α as they were built before the bulk
// symmetrization: one sorted AddEdge insert per edge. FuzzSymmetrize
// requires the bulk builders to return the same graphs.

func symmetricClosureRef(d *Digraph) *Graph {
	g := New(d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.out[u] {
			g.AddEdge(u, int(v))
		}
	}
	return g
}

func mutualSubgraphRef(d *Digraph) *Graph {
	g := New(d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.out[u] {
			if u < int(v) && d.HasArc(int(v), u) {
				g.AddEdge(u, int(v))
			}
		}
	}
	return g
}

// FuzzSymmetrize: on random digraphs — any size, arc density and share
// of reversed arcs — SymmetricClosure and MutualSubgraph equal the
// per-edge references, and mutating a result leaves a second build
// untouched.
func FuzzSymmetrize(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(255), uint8(255))
	f.Add(uint64(3), uint8(12), uint8(60), uint8(128))
	f.Add(uint64(4), uint8(40), uint8(20), uint8(30))
	f.Add(uint64(5), uint8(90), uint8(200), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, size, density, reverse uint8) {
		n := int(size) % 100
		rng := rand.New(rand.NewPCG(seed, 17))
		d := NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if v == u || rng.IntN(256) >= int(density) {
					continue
				}
				d.AddArc(u, v)
				if rng.IntN(256) < int(reverse) {
					d.AddArc(v, u)
				}
			}
		}
		for _, tc := range []struct {
			name      string
			bulk, ref func(*Digraph) *Graph
		}{
			{"closure", (*Digraph).SymmetricClosure, symmetricClosureRef},
			{"mutual", (*Digraph).MutualSubgraph, mutualSubgraphRef},
		} {
			got, want := tc.bulk(d), tc.ref(d)
			if !got.Equal(want) {
				t.Fatalf("%s: bulk build has %d edges %v, per-edge reference %d edges %v",
					tc.name, got.EdgeCount(), got.Edges(), want.EdgeCount(), want.Edges())
			}
			if n >= 2 {
				got.AddEdge(0, n-1)
				if again := tc.bulk(d); !again.Equal(want) {
					t.Fatalf("%s: mutating one bulk build changed the next", tc.name)
				}
			}
		}
	})
}
