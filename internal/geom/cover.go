package geom

import (
	"cmp"
	"slices"
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
// up to date by Add and Remove. Otherwise the query's arcs are merged
// into reused scratch and compared with the reference's, up to 10·Eps
// per arc endpoint after the split arc at 0 is joined. A warmed Cover
// allocates nothing. The zero value is ready for Reset; a Cover is not
// safe for concurrent use.
type Cover struct {
	alpha   float64
	ref     refKind
	refArcs []arc     // merged arcs of the reference, when ref is refArcs
	sorted  []float64 // query set, normalized and ascending
	dirs    []float64 // query set as given: the arc endpoints derive from these
	arcs    []arc     // scratch for the query's merged arcs
}

// Reset makes dirs both the reference set and the query set, for cone
// angle alpha. Arc endpoints derive from each direction exactly as
// given: for d outside [0, 2π), Normalize(d−α/2) can differ in the last
// bit from Normalize(Normalize(d)−α/2), so a caller whose decisions are
// defined on normalized directions passes normalized ones.
func (c *Cover) Reset(dirs []float64, alpha float64) {
	c.alpha = alpha
	c.dirs = append(c.dirs[:0], dirs...)
	c.sorted = c.sorted[:0]
	for _, d := range dirs {
		c.sorted = append(c.sorted, Normalize(d))
	}
	slices.Sort(c.sorted)
	switch {
	case len(dirs) == 0:
		c.ref = refEmpty
	case alpha >= TwoPi || !HasGapSorted(c.sorted, alpha):
		c.ref = refFull
	default:
		c.ref = refArcs
		c.refArcs = mergeArcs(c.refArcs[:0], dirs, alpha)
	}
}

// Clear empties the query set; the reference is kept.
func (c *Cover) Clear() {
	c.sorted = c.sorted[:0]
	c.dirs = c.dirs[:0]
}

// Add inserts direction d into the query set.
func (c *Cover) Add(d float64) {
	c.sorted = InsertSorted(c.sorted, d)
	c.dirs = append(c.dirs, d)
}

// Remove deletes one occurrence of d, as passed to Reset or Add, from
// the query set; d must be in it.
func (c *Cover) Remove(d float64) {
	j := slices.Index(c.dirs, d)
	c.dirs[j] = c.dirs[len(c.dirs)-1]
	c.dirs = c.dirs[:len(c.dirs)-1]
	i, _ := slices.BinarySearch(c.sorted, Normalize(d))
	c.sorted = slices.Delete(c.sorted, i, i+1)
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
	c.arcs = mergeArcs(c.arcs[:0], c.dirs, c.alpha)
	return equalArcs(c.arcs, c.refArcs)
}

// mergeArcs appends to dst the union of the arcs [d−α/2, d+α/2] over
// dirs, split at 0 where an arc crosses it, sorted by start and merged
// where one arc starts within Eps of the previous end. Arcs with equal
// starts merge to the same result in any order, so the sort need not
// be stable.
func mergeArcs(dst []arc, dirs []float64, alpha float64) []arc {
	half := alpha / 2
	for _, d := range dirs {
		start := Normalize(d - half)
		end := start + alpha
		if end > TwoPi {
			dst = append(dst, arc{start, TwoPi}, arc{0, end - TwoPi})
		} else {
			dst = append(dst, arc{start, end})
		}
	}
	slices.SortFunc(dst, func(a, b arc) int { return cmp.Compare(a.start, b.start) })

	merged := dst[:1]
	for _, a := range dst[1:] {
		last := &merged[len(merged)-1]
		if a.start <= last.end+Eps {
			if a.end > last.end {
				last.end = a.end
			}
		} else {
			merged = append(merged, a)
		}
	}
	return merged
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
