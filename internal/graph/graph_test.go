package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := New(5)
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 2) // self-loop ignored

	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Errorf("edges must be symmetric")
	}
	if g.HasEdge(2, 2) {
		t.Errorf("self-loops must be ignored")
	}
	if got := g.EdgeCount(); got != 2 {
		t.Errorf("EdgeCount = %d, want 2", got)
	}
	if got := g.Degree(1); got != 2 {
		t.Errorf("Degree(1) = %d, want 2", got)
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}

	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Errorf("edge must be removed")
	}
	g.RemoveEdge(0, 1) // idempotent
}

func TestGraphAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 1)
	if got := g.EdgeCount(); got != 1 {
		t.Errorf("EdgeCount = %d, want 1", got)
	}
}

func TestGraphEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(2, 0)
	g.AddEdge(1, 0)
	edges := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("Edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestGraphCloneEqual(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatalf("clone must equal original")
	}
	c.AddEdge(1, 2)
	if g.Equal(c) {
		t.Errorf("modified clone must differ")
	}
	if g.HasEdge(1, 2) {
		t.Errorf("clone mutation leaked into original")
	}
	if !g.IsSubgraphOf(c) {
		t.Errorf("g must be a subgraph of g + extra edge")
	}
	if c.IsSubgraphOf(g) {
		t.Errorf("supergraph must not be a subgraph")
	}
}

func TestGraphPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for out-of-range node")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestNewEdgeCanonical(t *testing.T) {
	if e := NewEdge(5, 2); e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want {2 5}", e)
	}
}

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(1, 0)
	d.AddArc(2, 3)
	d.AddArc(3, 3) // ignored

	if !d.HasArc(0, 1) || !d.HasArc(1, 0) || !d.HasArc(2, 3) {
		t.Fatalf("missing arcs")
	}
	if d.HasArc(3, 2) {
		t.Errorf("reverse arc must be absent")
	}
	if got := d.ArcCount(); got != 3 {
		t.Errorf("ArcCount = %d, want 3", got)
	}
	if got := d.Successors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Successors(0) = %v, want [1]", got)
	}
	if got := d.OutDegree(3); got != 0 {
		t.Errorf("OutDegree(3) = %d, want 0", got)
	}
}

func TestSymmetricClosureAndMutual(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(0, 1) // asymmetric
	d.AddArc(1, 2) // mutual
	d.AddArc(2, 1)
	d.AddArc(3, 0) // asymmetric

	closure := d.SymmetricClosure()
	for _, e := range []Edge{{0, 1}, {1, 2}, {0, 3}} {
		if !closure.HasEdge(e.U, e.V) {
			t.Errorf("closure missing %v", e)
		}
	}
	if closure.EdgeCount() != 3 {
		t.Errorf("closure EdgeCount = %d, want 3", closure.EdgeCount())
	}

	mutual := d.MutualSubgraph()
	if !mutual.HasEdge(1, 2) {
		t.Errorf("mutual must keep the 1-2 edge")
	}
	if mutual.EdgeCount() != 1 {
		t.Errorf("mutual EdgeCount = %d, want 1", mutual.EdgeCount())
	}

	asym := d.AsymmetricArcs()
	if len(asym) != 2 {
		t.Fatalf("AsymmetricArcs = %v, want 2 arcs", asym)
	}
	if asym[0] != (Edge{0, 1}) || asym[1] != (Edge{3, 0}) {
		t.Errorf("AsymmetricArcs = %v, want [{0 1} {3 0}]", asym)
	}
}

// The mutual subgraph is always a subgraph of the symmetric closure.
func TestMutualSubsetOfClosureProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := int(nRaw%20) + 2
		d := NewDigraph(n)
		arcs := rng.IntN(n * 2)
		for i := 0; i < arcs; i++ {
			d.AddArc(rng.IntN(n), rng.IntN(n))
		}
		return d.MutualSubgraph().IsSubgraphOf(d.SymmetricClosure())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
