package geom

import (
	"cmp"
	"slices"
	"sort"
)

// arc is a closed interval [start, end] on the circle with
// 0 ≤ start ≤ end ≤ 2π. Arcs that cross the 0 bearing are stored split
// into two pieces, so a merged arc list is a sorted list of disjoint,
// maximal arcs (except for the possible split at 0).
type arc struct {
	start, end float64
}

// coverTol is the per-endpoint tolerance of a coverage comparison.
const coverTol = 10 * Eps

// refKind classifies a Cover's reference coverage.
type refKind uint8

const (
	refEmpty refKind = iota // no directions: covers nothing
	refFull                 // no α-gap (or α ≥ 2π): covers the whole circle
	refArcs                 // an α-gap: covers the arcs in refArcs
)

// Cover decides whether a direction set has the same α-coverage as a
// reference set — cover_α of §3.1, the union over the directions d of
// the arcs [d−α/2, d+α/2] — without building arc sets per query. It is
// the test shrink-back and the §4 repair run on every candidate prefix
// or removal.
//
// Reset installs the reference, which is also the initial query set;
// Clear, Add and Remove edit the query set and Same compares it with
// the reference. When the reference covers the whole circle — the case
// of every interior node — coverage equality is exactly the absence of
// an α-gap in the query set, a linear scan over a sorted slice kept
// up to date by Add and Remove. Otherwise the query set's arc pieces
// are kept too, ascending by start: Add and Remove insert or delete a
// direction's one or two pieces by binary search, so Same merges them
// in one linear pass, with no sort per test, and compares the merged
// arcs with the reference's, up to 10·Eps per arc endpoint after the
// split arc at 0 is joined. A warmed Cover allocates nothing. The zero
// value is ready for Reset; a Cover is not safe for concurrent use.
type Cover struct {
	alpha   float64
	ref     refKind
	refArcs []arc     // merged arcs of the reference, when ref is refArcs
	sorted  []float64 // query set, normalized and ascending
	pieces  []arc     // query set's arc pieces ascending by start, when ref is refArcs
	arcs    []arc     // scratch for the query's merged arcs
}

// Reset makes dirs both the reference set and the query set, for cone
// angle alpha. Arc endpoints derive from each direction exactly as
// given: for d outside [0, 2π), Normalize(d−α/2) can differ in the last
// bit from Normalize(Normalize(d)−α/2), so a caller whose decisions are
// defined on normalized directions passes normalized ones.
func (c *Cover) Reset(dirs []float64, alpha float64) {
	c.alpha = alpha
	c.sorted = slices.Grow(c.sorted[:0], len(dirs))
	for _, d := range dirs {
		c.sorted = append(c.sorted, Normalize(d))
	}
	slices.Sort(c.sorted)
	c.pieces = c.pieces[:0]
	switch {
	case len(dirs) == 0:
		c.ref = refEmpty
	case alpha >= TwoPi || !HasGapSorted(c.sorted, alpha):
		c.ref = refFull
	default:
		c.ref = refArcs
		for _, d := range dirs {
			c.pieces = appendPieces(c.pieces, d, alpha)
		}
		slices.SortFunc(c.pieces, func(a, b arc) int { return cmp.Compare(a.start, b.start) })
		c.refArcs = mergePieces(c.refArcs[:0], c.pieces)
	}
}

// Clear empties the query set; the reference is kept.
func (c *Cover) Clear() {
	c.sorted = c.sorted[:0]
	c.pieces = c.pieces[:0]
}

// Add inserts direction d into the query set.
func (c *Cover) Add(d float64) {
	c.sorted = InsertSorted(c.sorted, d)
	if c.ref != refArcs {
		return
	}
	var buf [2]arc
	for _, p := range appendPieces(buf[:0], d, c.alpha) {
		c.pieces = slices.Insert(c.pieces, pieceIndex(c.pieces, p.start), p)
	}
}

// Remove deletes one occurrence of d, as passed to Reset or Add, from
// the query set; d must be in it.
func (c *Cover) Remove(d float64) {
	i, _ := slices.BinarySearch(c.sorted, Normalize(d))
	c.sorted = slices.Delete(c.sorted, i, i+1)
	if c.ref != refArcs {
		return
	}
	// d derives the very pieces it added, so each is found bit for bit
	// among the pieces that share its start.
	var buf [2]arc
	for _, p := range appendPieces(buf[:0], d, c.alpha) {
		j := pieceIndex(c.pieces, p.start)
		for c.pieces[j] != p {
			j++
		}
		c.pieces = slices.Delete(c.pieces, j, j+1)
	}
}

// Same reports whether the query set's α-coverage equals the
// reference's. The empty set equals only the empty set; a full circle
// equals only a full circle; two partial coverages are equal when their
// arcs agree endpoint by endpoint within 10·Eps.
func (c *Cover) Same() bool {
	if len(c.sorted) == 0 {
		return c.ref == refEmpty
	}
	full := c.alpha >= TwoPi || !HasGapSorted(c.sorted, c.alpha)
	switch c.ref {
	case refEmpty:
		return false
	case refFull:
		return full
	}
	if full {
		return false
	}
	c.arcs = mergePieces(c.arcs[:0], c.pieces)
	return equalArcs(c.arcs, c.refArcs)
}

// appendPieces appends the arc [d−α/2, d+α/2] to dst, split at 0 into
// two pieces when it crosses it. The start is Normalize(d−α/2) with a
// zero start made +0 (Normalize keeps the sign of a −0), so pieces with
// equal starts are equal bit for bit and merge to the same arcs in any
// order.
func appendPieces(dst []arc, d, alpha float64) []arc {
	start := Normalize(d - alpha/2)
	if start == 0 {
		start = 0
	}
	end := start + alpha
	if end > TwoPi {
		return append(dst, arc{start, TwoPi}, arc{0, end - TwoPi})
	}
	return append(dst, arc{start, end})
}

// pieceIndex returns the position of the first piece whose start is at
// least start, in pieces ascending by start.
func pieceIndex(pieces []arc, start float64) int {
	return sort.Search(len(pieces), func(i int) bool { return pieces[i].start >= start })
}

// mergePieces appends to dst the union of pieces, which ascend by
// start, merging a piece into the previous arc when it starts within
// Eps of that arc's end. The result is a sorted list of disjoint,
// maximal arcs (except for the possible split at 0).
func mergePieces(dst, pieces []arc) []arc {
	for _, p := range pieces {
		if n := len(dst); n > 0 && p.start <= dst[n-1].end+Eps {
			if p.end > dst[n-1].end {
				dst[n-1].end = p.end
			}
		} else {
			dst = append(dst, p)
		}
	}
	return dst
}

// equalArcs compares two merged arc lists endpoint by endpoint within
// coverTol, after joining each list's split arc at 0: a list whose
// first arc starts at 0 and whose last ends at 2π compares as if those
// two were one arc starting at a negative angle.
func equalArcs(a, b []arc) bool {
	wa, wb := wrapsZero(a), wrapsZero(b)
	n := len(a)
	if wa {
		n--
	}
	m := len(b)
	if wb {
		m--
	}
	if n != m {
		return false
	}
	for i := 0; i < n; i++ {
		x, y := joinedArc(a, wa, i), joinedArc(b, wb, i)
		if absf(x.start-y.start) > coverTol || absf(x.end-y.end) > coverTol {
			return false
		}
	}
	return true
}

// wrapsZero reports whether a merged list's first and last arcs are the
// two halves of one arc crossing the 0 bearing.
func wrapsZero(arcs []arc) bool {
	return len(arcs) >= 2 && arcs[0].start <= Eps && arcs[len(arcs)-1].end >= TwoPi-Eps
}

// joinedArc returns arc i of the list with its split at 0 joined: the
// joined arc comes first, followed by arcs[1:len-1].
func joinedArc(arcs []arc, wrapped bool, i int) arc {
	if wrapped && i == 0 {
		return arc{arcs[len(arcs)-1].start - TwoPi, arcs[0].end}
	}
	return arcs[i]
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
