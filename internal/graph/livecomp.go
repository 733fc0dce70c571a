package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Delta describes one repair's worth of changes to a live graph, the
// unit LiveComponents.Apply consumes. A Session accumulates one Delta
// per recompute: the nodes that left the live set, and the exact edge
// insertions/removals its arc patches performed (Graph.AddEdge and
// RemoveEdge report effectiveness precisely so callers can record
// these without diffing rows).
type Delta struct {
	// Departed lists the nodes removed from the live set. Their incident
	// edge removals must appear in Removed (the Session's repair isolates
	// departed nodes edge by edge, so they do).
	Departed []int
	// Added lists the edges inserted. Both endpoints are live at Apply
	// time; edges touching a node departed in the same Delta are ignored.
	Added []Edge
	// Removed lists the edges deleted. Endpoints may include departed
	// nodes; the live endpoints seed the rebuild-on-split search.
	Removed []Edge
}

// LiveComponents maintains the connected components of an undirected
// graph restricted to its live nodes, under incremental change: node
// joins, node departures, edge insertions and edge removals. It is the
// structure behind a Session's O(changed) Observe — Count answers the
// per-tick connectivity metric without the full BFS a fresh recount
// pays.
//
// The design is union-find with one extra indirection: node2set maps a
// live node to a disjoint-set slot (or -1 once departed), and the
// union-find runs over slots. Insertions and joins are classic O(α)
// unions. Deletions — which plain union-find cannot unmerge — are
// handled by rebuild-on-split scoped to the repair region: the live
// endpoints of the removed edges seed a multi-source round-robin search
// over the final graph, racing one search per seed until at most one
// group per old component is still expanding. Every fragment of a split
// component necessarily contains a live endpoint of some removed edge,
// so each completed search group is exactly one new fragment and is
// carved into a fresh slot; the last group standing keeps the old slot,
// which means the search never pays for the (typically dominant)
// surviving fragment. When nothing split, the seeds' searches meet and
// merge after exploring only the repair's neighborhood.
//
// LiveComponents is not safe for concurrent use; its owner serializes
// access (the Session lock).
type LiveComponents struct {
	node2set []int32 // per node: union-find slot, -1 once departed
	parent   []int32 // union-find forest over slots
	rank     []uint8
	size     []int32 // live members per root slot
	count    int     // live components

	// visit/owner/visitGen are the epoch-stamped scratch of Apply's
	// rebuild-on-split search: node u is claimed this Apply iff
	// visit[u] == visitGen, and then owner[u] is the claiming search.
	// A node is claimed once per Apply, so each search keeps its
	// frontier stack and its claimed nodes as lists linked through
	// nextQueued and nextClaimed, indexed by node like visit.
	visit       []int
	owner       []int32
	nextQueued  []int32
	nextClaimed []int32
	visitGen    int

	// The rest of the search's scratch, reused across Applies: one
	// search per seed, the seed indices grouped by root, the union-find
	// over searches, and per union-find slot 1 + the group number of
	// the root it names (0 outside splitRepair's grouping).
	searches  []lcSearch
	groups    []int32
	sparent   []int32
	rootGroup []int32
}

// NewLiveComponents builds the structure for g restricted to the live
// nodes, by one full BFS — the same recount the structure subsequently
// avoids. Edges must never touch non-live nodes (the Session invariant:
// repairs isolate departed nodes).
func NewLiveComponents(g *Graph, alive []bool) *LiveComponents {
	n := g.Len()
	if len(alive) != n {
		panic(fmt.Sprintf("graph: liveness vector length %d != node count %d", len(alive), n))
	}
	lc := &LiveComponents{node2set: make([]int32, n)}
	for u := range lc.node2set {
		lc.node2set[u] = -1
	}
	var stack []int32
	for u, live := range alive {
		if !live || lc.node2set[u] >= 0 {
			continue
		}
		slot := lc.newSlot()
		lc.count++
		members := int32(1)
		lc.node2set[u] = slot
		stack = append(stack[:0], int32(u))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Row(int(x)) {
				if lc.node2set[v] < 0 {
					lc.node2set[v] = slot
					members++
					stack = append(stack, v)
				}
			}
		}
		lc.size[slot] = members
	}
	return lc
}

// Count returns the number of connected components among live nodes.
func (lc *LiveComponents) Count() int { return lc.count }

// Same reports whether u and v are live and in the same component.
func (lc *LiveComponents) Same(u, v int) bool {
	su, sv := lc.node2set[u], lc.node2set[v]
	if su < 0 || sv < 0 {
		return false
	}
	return lc.find(su) == lc.find(sv)
}

// Label returns the label of u's component, or -1 once u has departed:
// two live nodes share a component iff their labels are equal. Labels
// hold until the next Join or Apply.
func (lc *LiveComponents) Label(u int) int32 {
	slot := lc.node2set[u]
	if slot < 0 {
		return -1
	}
	return lc.find(slot)
}

// Largest returns the label of a largest live component (the one first
// met in id order among equals), or -1 when no node is live.
func (lc *LiveComponents) Largest() int32 {
	best := int32(-1)
	for _, slot := range lc.node2set {
		if slot < 0 {
			continue
		}
		if r := lc.find(slot); best < 0 || lc.size[r] > lc.size[best] {
			best = r
		}
	}
	return best
}

// Len returns the size of the node id space.
func (lc *LiveComponents) Len() int { return len(lc.node2set) }

// Join admits node u — either the next fresh id (extending the id
// space) or an existing never-live slot — as a new singleton component.
func (lc *LiveComponents) Join(u int) {
	for len(lc.node2set) <= u {
		lc.node2set = append(lc.node2set, -1)
	}
	if lc.node2set[u] >= 0 {
		panic(fmt.Sprintf("graph: join of live node %d", u))
	}
	slot := lc.newSlot()
	lc.node2set[u] = slot
	lc.size[slot] = 1
	lc.count++
}

// Apply folds one repair's changes into the maintained components.
// g must already be in its post-repair state: the rebuild-on-split
// search traverses g's final rows. Departures are processed first, then
// insertions as unions, then removals via the seeded search.
func (lc *LiveComponents) Apply(g *Graph, d Delta) {
	for _, u := range d.Departed {
		slot := lc.node2set[u]
		if slot < 0 {
			continue
		}
		lc.node2set[u] = -1
		r := lc.find(slot)
		lc.size[r]--
		if lc.size[r] == 0 {
			lc.count--
		}
	}
	for _, e := range d.Added {
		su, sv := lc.node2set[e.U], lc.node2set[e.V]
		if su < 0 || sv < 0 {
			continue
		}
		lc.union(lc.find(su), lc.find(sv))
	}
	if len(d.Removed) > 0 {
		lc.splitRepair(g, d.Removed)
	}
}

// lcSearch is one seed's region of Apply's rebuild-on-split race. Its
// frontier is a stack linked through LiveComponents.nextQueued, top
// first; its claimed nodes (the fragment's members, if carved) a list
// linked through nextClaimed. -1 ends a list.
type lcSearch struct {
	top, bottom int32 // the frontier stack's ends, -1 when empty
	first, last int32 // the claimed list's ends; a search claims its seed
	claimed     int32 // how many nodes the claimed list holds
	root        int32 // the old component's root slot
	group       int32 // the number of root among the call's roots, first seen first
	dead        bool  // absorbed into another search of the same fragment
}

// splitRepair re-derives the components of every set that lost an edge.
// Seeds are the distinct live endpoints of the net-removed edges,
// grouped by their current root; a group with a single seed cannot have
// split (any fragment of a split contains such an endpoint: the first
// edge a cross-fragment walk uses is absent from the final graph), and
// each multi-seed group races its seeds' searches over the final graph.
// Removals undone within the same delta — a Move's repair strips and
// re-derives mostly the same arcs — are skipped outright: an edge the
// final graph still has cannot have caused a split.
func (lc *LiveComponents) splitRepair(g *Graph, removed []Edge) {
	gen := lc.nextGen()
	lc.searches = lc.searches[:0]
	for _, e := range removed {
		if g.HasEdge(e.U, e.V) {
			continue
		}
		for _, u := range [2]int{e.U, e.V} {
			slot := lc.node2set[u]
			if slot < 0 || lc.visit[u] == gen {
				continue
			}
			lc.visit[u] = gen
			lc.owner[u] = int32(len(lc.searches))
			lc.nextQueued[u], lc.nextClaimed[u] = -1, -1
			lc.searches = append(lc.searches, lcSearch{
				top: int32(u), bottom: int32(u),
				first: int32(u), last: int32(u), claimed: 1,
				root: lc.find(slot),
			})
		}
	}
	// Group seeds by root, roots in first-seen order and seeds in seed
	// order within a group, so slot allocation — and with it the whole
	// structure — is deterministic in the input.
	if n := len(lc.parent); len(lc.rootGroup) < n {
		lc.rootGroup = append(lc.rootGroup, make([]int32, n-len(lc.rootGroup))...)
	}
	var roots int32
	lc.groups, lc.sparent = lc.groups[:0], lc.sparent[:0]
	for i := range lc.searches {
		s := &lc.searches[i]
		if lc.rootGroup[s.root] == 0 {
			roots++
			lc.rootGroup[s.root] = roots
		}
		s.group = lc.rootGroup[s.root] - 1
		lc.groups = append(lc.groups, int32(i))
		// sparent is a small union-find over search indices: searches
		// whose frontiers meet belong to the same fragment.
		lc.sparent = append(lc.sparent, int32(i))
	}
	for i := range lc.searches {
		lc.rootGroup[lc.searches[i].root] = 0
	}
	slices.SortStableFunc(lc.groups, func(a, b int32) int {
		return cmp.Compare(lc.searches[a].group, lc.searches[b].group)
	})
	for rest := lc.groups; len(rest) > 0; {
		n := 1
		for n < len(rest) && lc.searches[rest[n]].group == lc.searches[rest[0]].group {
			n++
		}
		if n > 1 {
			lc.raceSearches(g, gen, rest[:n])
		}
		rest = rest[n:]
	}
}

// sfind returns search x's representative in the search union-find,
// with path halving.
func (lc *LiveComponents) sfind(x int32) int32 {
	for lc.sparent[x] != x {
		lc.sparent[x] = lc.sparent[lc.sparent[x]]
		x = lc.sparent[x]
	}
	return x
}

// raceSearches expands the group's searches round-robin, one frontier
// node per search per round, over the final graph. Searches that touch
// are merged (same fragment); a search whose frontier empties while
// others are still expanding has fully mapped its fragment and is
// carved into a fresh slot. When at most one search remains, its
// fragment — plus anything never reached, which by the seed invariant is
// part of the same fragment — keeps the old slot, so the dominant
// surviving fragment is never fully traversed.
func (lc *LiveComponents) raceSearches(g *Graph, gen int, members []int32) {
	remaining := members
	for len(remaining) > 1 {
		next := remaining[:0]
		for _, si := range remaining {
			s := &lc.searches[si]
			if s.dead {
				continue
			}
			if s.top < 0 {
				// Completed while others still expand: a full fragment.
				lc.carve(s)
				continue
			}
			x := s.top
			if s.top = lc.nextQueued[x]; s.top < 0 {
				s.bottom = -1
			}
			for _, v := range g.Row(int(x)) {
				if lc.visit[v] == gen {
					if j := lc.sfind(lc.owner[v]); j != si {
						// Frontiers met: same fragment. Absorb j into si:
						// its frontier goes on top of si's, in its order.
						o := &lc.searches[j]
						if o.top >= 0 {
							lc.nextQueued[o.bottom] = s.top
							if s.top < 0 {
								s.bottom = o.bottom
							}
							s.top = o.top
						}
						lc.nextClaimed[o.last] = s.first
						s.first = o.first
						s.claimed += o.claimed
						o.dead = true
						lc.sparent[j] = si
					}
					continue
				}
				lc.visit[v] = gen
				lc.owner[v] = si
				lc.nextQueued[v] = s.top
				if s.top < 0 {
					s.bottom = v
				}
				s.top = v
				lc.nextClaimed[v] = s.first
				s.first = v
				s.claimed++
			}
			next = append(next, si)
		}
		remaining = next
	}
}

// carve moves one completed fragment, search s's claimed nodes, out of
// its old component into a fresh slot. A fragment covering everything
// still in the old set is the remainder — every sibling fragment was
// carved before it — and keeps the old slot instead, so the component
// count stays exact even when the race's last two searches complete in
// the same round.
func (lc *LiveComponents) carve(s *lcSearch) {
	r := lc.find(s.root)
	if lc.size[r] == s.claimed {
		return
	}
	slot := lc.newSlot()
	lc.size[slot] = s.claimed
	for u := s.first; u >= 0; u = lc.nextClaimed[u] {
		lc.node2set[u] = slot
	}
	lc.size[r] -= s.claimed
	lc.count++
}

// find returns slot x's root, with path halving.
func (lc *LiveComponents) find(x int32) int32 {
	for lc.parent[x] != x {
		lc.parent[x] = lc.parent[lc.parent[x]]
		x = lc.parent[x]
	}
	return x
}

// union merges two root slots by rank, folding sizes into the winner.
func (lc *LiveComponents) union(a, b int32) {
	if a == b {
		return
	}
	if lc.rank[a] < lc.rank[b] {
		a, b = b, a
	}
	lc.parent[b] = a
	lc.size[a] += lc.size[b]
	lc.size[b] = 0
	if lc.rank[a] == lc.rank[b] {
		lc.rank[a]++
	}
	lc.count--
}

// newSlot appends a fresh singleton union-find slot with size 0; the
// caller accounts for members and the component count.
func (lc *LiveComponents) newSlot() int32 {
	s := int32(len(lc.parent))
	lc.parent = append(lc.parent, s)
	lc.rank = append(lc.rank, 0)
	lc.size = append(lc.size, 0)
	return s
}

// nextGen starts a fresh visit epoch over the current id space.
func (lc *LiveComponents) nextGen() int {
	if n := len(lc.node2set) - len(lc.visit); n > 0 {
		lc.visit = append(lc.visit, make([]int, n)...)
		lc.owner = append(lc.owner, make([]int32, n)...)
		lc.nextQueued = append(lc.nextQueued, make([]int32, n)...)
		lc.nextClaimed = append(lc.nextClaimed, make([]int32, n)...)
	}
	lc.visitGen++
	return lc.visitGen
}
