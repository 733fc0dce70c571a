package graph

import (
	"math/rand/v2"
	"testing"
)

// recount is the reference: a full BFS component count over live nodes,
// plus a labeling for Same checks.
func recount(g *Graph, alive []bool) (int, []int) {
	label := make([]int, g.Len())
	for i := range label {
		label[i] = -1
	}
	count := 0
	var stack []int32
	for u, live := range alive {
		if !live || label[u] >= 0 {
			continue
		}
		count++
		label[u] = count
		stack = append(stack[:0], int32(u))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Row(int(x)) {
				if label[v] < 0 {
					label[v] = count
					stack = append(stack, v)
				}
			}
		}
	}
	return count, label
}

// checkAgainstReference asserts lc's Count and Same agree with a fresh
// BFS recount of (g, alive).
func checkAgainstReference(t *testing.T, step int, lc *LiveComponents, g *Graph, alive []bool, rng *rand.Rand) {
	t.Helper()
	want, label := recount(g, alive)
	if got := lc.Count(); got != want {
		t.Fatalf("step %d: Count = %d, want %d", step, got, want)
	}
	// Label partitions the live nodes exactly as the BFS does, and
	// Largest names a component of maximum size.
	ref := map[int32]int{} // lc label → BFS label
	size := map[int]int{}  // BFS label → live members
	biggest := 0
	for u, live := range alive {
		l := lc.Label(u)
		if !live {
			if l != -1 {
				t.Fatalf("step %d: departed node %d has label %d", step, u, l)
			}
			continue
		}
		if r, ok := ref[l]; ok && r != label[u] {
			t.Fatalf("step %d: label %d spans BFS components %d and %d", step, l, r, label[u])
		}
		ref[l] = label[u]
		size[label[u]]++
		biggest = max(biggest, size[label[u]])
	}
	if len(ref) != want {
		t.Fatalf("step %d: %d distinct labels for %d components", step, len(ref), want)
	}
	if l := lc.Largest(); want == 0 && l != -1 || want > 0 && size[ref[l]] != biggest {
		t.Fatalf("step %d: Largest = %d with %d members, largest has %d", step, l, size[ref[l]], biggest)
	}
	n := g.Len()
	if n == 0 {
		return
	}
	for k := 0; k < 4*n; k++ {
		u, v := rng.IntN(n), rng.IntN(n)
		want := label[u] > 0 && label[v] > 0 && label[u] == label[v]
		if got := lc.Same(u, v); got != want {
			t.Fatalf("step %d: Same(%d, %d) = %v, want %v (labels %d, %d)", step, u, v, got, want, label[u], label[v])
		}
	}
}

// applyMutations performs a batch of raw edge/liveness mutations on g,
// recording the exact Delta the way a Session's repair does (departures
// noted as they happen, edge ops recorded only when effective), then
// folds it into lc. It returns the recorded delta size for sanity.
type mutator struct {
	g     *Graph
	alive []bool
	lc    *LiveComponents
	d     Delta
}

func (m *mutator) join() int {
	id := m.g.Len()
	m.g.Grow(1)
	m.alive = append(m.alive, true)
	m.lc.Join(id)
	return id
}

func (m *mutator) depart(u int) {
	if !m.alive[u] {
		panic("depart of dead node")
	}
	m.alive[u] = false
	m.d.Departed = append(m.d.Departed, u)
	// A departing node loses all incident edges, like a Session repair
	// isolating it arc by arc.
	for _, v := range append([]int32(nil), m.g.Row(u)...) {
		m.removeEdge(u, int(v))
	}
}

func (m *mutator) addEdge(u, v int) {
	if u == v || !m.alive[u] || !m.alive[v] {
		return
	}
	if m.g.AddEdge(u, v) {
		m.d.Added = append(m.d.Added, NewEdge(u, v))
	}
}

func (m *mutator) removeEdge(u, v int) {
	if m.g.RemoveEdge(u, v) {
		m.d.Removed = append(m.d.Removed, NewEdge(u, v))
	}
}

func (m *mutator) commit() {
	m.lc.Apply(m.g, m.d)
	m.d = Delta{}
}

// TestLiveComponentsTargeted drives the structure through the known
// hard shapes of incremental connectivity.
func TestLiveComponentsTargeted(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))

	t.Run("cut-vertex-departure", func(t *testing.T) {
		// Path v0 - u(1) - v2: u departs, v0 and v2 must split.
		g := New(3)
		alive := []bool{true, true, true}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		lc := NewLiveComponents(g, alive)
		if lc.Count() != 1 {
			t.Fatalf("initial Count = %d, want 1", lc.Count())
		}
		m := &mutator{g: g, alive: alive, lc: lc}
		m.depart(1)
		m.commit()
		checkAgainstReference(t, 0, lc, g, alive, rng)
		if lc.Same(0, 2) {
			t.Fatal("v0 and v2 must be split after the cut vertex departs")
		}
	})

	t.Run("bridge-removal", func(t *testing.T) {
		// Two triangles joined by a bridge; removing the bridge splits.
		g := New(6)
		alive := []bool{true, true, true, true, true, true}
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
			g.AddEdge(e[0], e[1])
		}
		lc := NewLiveComponents(g, alive)
		m := &mutator{g: g, alive: alive, lc: lc}
		m.removeEdge(2, 3)
		m.commit()
		checkAgainstReference(t, 0, lc, g, alive, rng)
	})

	t.Run("cycle-removal-no-split", func(t *testing.T) {
		g := New(4)
		alive := []bool{true, true, true, true}
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
			g.AddEdge(e[0], e[1])
		}
		lc := NewLiveComponents(g, alive)
		m := &mutator{g: g, alive: alive, lc: lc}
		m.removeEdge(0, 1)
		m.commit()
		if lc.Count() != 1 {
			t.Fatalf("cycle minus one edge must stay connected, Count = %d", lc.Count())
		}
	})

	t.Run("add-and-remove-same-edge", func(t *testing.T) {
		// An edge inserted and deleted within one delta: the spurious
		// union must be unwound by the seeded search.
		g := New(2)
		alive := []bool{true, true}
		lc := NewLiveComponents(g, alive)
		m := &mutator{g: g, alive: alive, lc: lc}
		m.addEdge(0, 1)
		m.removeEdge(0, 1)
		m.commit()
		if lc.Count() != 2 || lc.Same(0, 1) {
			t.Fatalf("transient edge must not merge: Count = %d Same = %v", lc.Count(), lc.Same(0, 1))
		}
	})

	t.Run("simultaneous-total-shatter", func(t *testing.T) {
		// A star loses its hub: every leaf becomes a singleton, and all
		// leaf searches complete in the same round — the remainder rule
		// must keep the count exact.
		g := New(5)
		alive := []bool{true, true, true, true, true}
		for v := 1; v < 5; v++ {
			g.AddEdge(0, v)
		}
		lc := NewLiveComponents(g, alive)
		m := &mutator{g: g, alive: alive, lc: lc}
		m.depart(0)
		m.commit()
		checkAgainstReference(t, 0, lc, g, alive, rng)
		if lc.Count() != 4 {
			t.Fatalf("shattered star: Count = %d, want 4", lc.Count())
		}
	})

	t.Run("merge-two-components", func(t *testing.T) {
		g := New(4)
		alive := []bool{true, true, true, true}
		g.AddEdge(0, 1)
		g.AddEdge(2, 3)
		lc := NewLiveComponents(g, alive)
		m := &mutator{g: g, alive: alive, lc: lc}
		m.addEdge(1, 2)
		m.commit()
		if lc.Count() != 1 || !lc.Same(0, 3) {
			t.Fatalf("merge: Count = %d Same(0,3) = %v", lc.Count(), lc.Same(0, 3))
		}
	})

	t.Run("join-then-link", func(t *testing.T) {
		g := New(2)
		alive := []bool{true, true}
		g.AddEdge(0, 1)
		lc := NewLiveComponents(g, alive)
		m := &mutator{g: g, alive: alive, lc: lc}
		id := m.join()
		if lc.Count() != 2 {
			t.Fatalf("joined singleton: Count = %d, want 2", lc.Count())
		}
		m.addEdge(id, 0)
		m.commit()
		if lc.Count() != 1 {
			t.Fatalf("linked newcomer: Count = %d, want 1", lc.Count())
		}
		checkAgainstReference(t, 0, lc, m.g, m.alive, rng)
	})
}

// TestLiveComponentsRandomLockstep drives random mutation batches and
// asserts Count/Same equal a fresh BFS recount after every commit.
func TestLiveComponentsRandomLockstep(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		n := 24 + int(seed)*8
		g := New(n)
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		// Sparse random start.
		for k := 0; k < n; k++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		lc := NewLiveComponents(g, alive)
		m := &mutator{g: g, alive: alive, lc: lc}

		liveIDs := func() []int {
			var ids []int
			for u, a := range m.alive {
				if a {
					ids = append(ids, u)
				}
			}
			return ids
		}
		for step := 0; step < 160; step++ {
			// One batch: several raw mutations, then one Apply — the same
			// granularity as a Session repair.
			ops := 1 + rng.IntN(4)
			for k := 0; k < ops; k++ {
				ids := liveIDs()
				switch op := rng.IntN(10); {
				case op < 4 && len(ids) >= 2: // add edge
					m.addEdge(ids[rng.IntN(len(ids))], ids[rng.IntN(len(ids))])
				case op < 7: // remove a random existing edge
					edges := m.g.Edges()
					if len(edges) > 0 {
						e := edges[rng.IntN(len(edges))]
						m.removeEdge(e.U, e.V)
					}
				case op < 8 && len(ids) > 2: // departure
					m.depart(ids[rng.IntN(len(ids))])
				default: // join, sometimes immediately linked
					id := m.join()
					if ids := liveIDs(); len(ids) > 1 && rng.IntN(2) == 0 {
						m.addEdge(id, ids[rng.IntN(len(ids))])
					}
				}
			}
			m.commit()
			checkAgainstReference(t, step, m.lc, m.g, m.alive, rng)
		}
	}
}
