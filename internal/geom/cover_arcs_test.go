package geom

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// mergeArcs is the merge Cover ran before it kept its arc pieces in
// order: it appends every direction's pieces to dst, sorts them by start
// and merges a piece into the previous arc when it starts within Eps of
// that arc's end. Arcs with equal starts merge to the same result in any
// order, so the sort need not be stable. FuzzCoverArcs requires Cover's
// kept pieces to merge to exactly this result.
func mergeArcs(dst []arc, dirs []float64, alpha float64) []arc {
	for _, d := range dirs {
		dst = appendPieces(dst, d, alpha)
	}
	if len(dst) == 0 {
		return dst
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

// coverArcsAlphas are the cone angles FuzzCoverArcs draws from: the
// asymmetric-removal bound, the connectivity bound and π.
var coverArcsAlphas = []float64{2 * math.Pi / 3, 5 * math.Pi / 6, math.Pi}

// coverArcsDir decodes one direction. The specials sit where pieces
// start or end on the circle's split at 0: at 0 from both sides, 2π and
// one ulp below it, and one ulp either side of α/2 and 2π − α/2, whose
// arcs start or end exactly at 0 or 2π. α/2 − 2π starts its arc at
// Normalize(−2π) = −0, next to α/2's +0. A grid of 24 bearings repeats
// directions; the wide kind leaves [0, 2π).
func coverArcsDir(kind byte, v uint16, alpha float64) float64 {
	half := alpha / 2
	specials := []float64{
		0, math.Copysign(0, -1), TwoPi, math.Nextafter(TwoPi, 0), -1e-12,
		half, math.Nextafter(half, 0), math.Nextafter(half, 4),
		TwoPi - half, math.Nextafter(TwoPi-half, 0), math.Nextafter(TwoPi-half, 7),
		half - TwoPi,
	}
	switch kind % 4 {
	case 0:
		return specials[int(v)%len(specials)]
	case 1:
		return float64(v%24) * TwoPi / 24
	case 2:
		return float64(v) / 65536 * TwoPi
	default:
		return float64(int16(v)) / 1000
	}
}

// sameArcBits compares two arc lists endpoint for endpoint, bitwise.
func sameArcBits(a, b []arc) bool {
	return slices.EqualFunc(a, b, func(x, y arc) bool {
		return math.Float64bits(x.start) == math.Float64bits(y.start) &&
			math.Float64bits(x.end) == math.Float64bits(y.end)
	})
}

// checkCoverArcs replays 4-byte operations on a Cover — Add, Remove of
// one query direction, Clear, and Reset to the query set plus one
// direction — against a model of its reference and query multisets.
// After every step, while the reference has an α-gap, the kept pieces
// ascend by start, merge to mergeArcs over the query set and the
// reference arcs are mergeArcs over the reference set, bit for bit; on
// a gap-free or empty reference no pieces are kept. Same always agrees
// with the from-scratch coverage comparison.
func checkCoverArcs(t *testing.T, alpha float64, data []byte) {
	t.Helper()
	var (
		c          Cover
		ref, query []float64
	)
	c.Reset(nil, alpha)
	for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
		v := uint16(data[2])<<8 | uint16(data[3])
		d := coverArcsDir(data[1], v, alpha)
		switch op := data[0] % 4; {
		case op == 1 && len(query) > 0:
			i := int(v) % len(query)
			c.Remove(query[i])
			query = slices.Delete(query, i, i+1)
		case op == 2:
			c.Clear()
			query = query[:0]
		case op == 3:
			ref = append(slices.Clone(query), d)
			query = slices.Clone(ref)
			c.Reset(ref, alpha)
		default:
			c.Add(d)
			query = append(query, d)
		}
		if c.ref != refArcs {
			if len(c.pieces) != 0 {
				t.Fatalf("step %d: %d pieces kept on a reference without an α-gap", step, len(c.pieces))
			}
		} else {
			if !slices.IsSortedFunc(c.pieces, func(a, b arc) int { return cmp.Compare(a.start, b.start) }) {
				t.Fatalf("step %d: pieces out of order: %v", step, c.pieces)
			}
			if got, want := mergePieces(nil, c.pieces), mergeArcs(nil, query, alpha); !sameArcBits(got, want) {
				t.Fatalf("step %d: query arcs %v, mergeArcs %v (alpha %v, query %v)", step, got, want, alpha, query)
			}
			if want := mergeArcs(nil, ref, alpha); !sameArcBits(c.refArcs, want) {
				t.Fatalf("step %d: reference arcs %v, mergeArcs %v (alpha %v, reference %v)", step, c.refArcs, want, alpha, ref)
			}
		}
		if got, want := c.Same(), sameRef(query, ref, alpha); got != want {
			t.Fatalf("step %d: Same=%v, reference %v (alpha %v, query %v, reference %v)", step, got, want, alpha, query, ref)
		}
	}
}

// FuzzCoverArcs: after any sequence of Reset, Add, Remove and Clear,
// Cover's order-kept arc pieces merge to exactly what the sort-based
// mergeArcs builds from the same directions.
func FuzzCoverArcs(f *testing.F) {
	// Add each special (kind 0, v = 0 … 11): 0, −0, 2π, one ulp below
	// 2π, −1e-12, α/2 and 2π − α/2 with their neighbours, α/2 − 2π;
	// Reset onto them, then remove half of them and add duplicates back.
	var specials []byte
	for v := byte(0); v < 12; v++ {
		specials = append(specials, 0, 0, 0, v)
	}
	specials = append(specials, 3, 1, 0, 3)
	for v := byte(0); v < 6; v++ {
		specials = append(specials, 1, 0, 0, v)
	}
	specials = append(specials, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0, 8, 0, 0, 0, 8)
	for pick := byte(0); pick < 3; pick++ {
		f.Add(pick, specials)
	}
	// A boundary node's directions, bunched within a half circle, with
	// duplicates; shrunk prefix by prefix after a Clear.
	f.Add(byte(1), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 5, 3, 1, 0, 6,
		2, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 3, 1, 0, 0, 0, 0, 1, 0, 5})
	// Arcs starting at +0 (α/2) and at −0 (α/2 − 2π), in both orders.
	f.Add(byte(0), []byte{0, 0, 0, 5, 0, 0, 0, 11, 3, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 5})
	// Directions outside [0, 2π) and exactly on the split at 0.
	f.Add(byte(2), []byte{0, 3, 0xf0, 0, 0, 3, 0x10, 0, 0, 0, 0, 0, 3, 0, 0, 2, 1, 0, 0, 1, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		if len(data) > 4*64 {
			data = data[:4*64]
		}
		checkCoverArcs(t, coverArcsAlphas[int(pick)%len(coverArcsAlphas)], data)
	})
}

// The ordinary test run also replays seeded random operation sequences
// at each cone angle, beyond the fuzzer's seed corpus.
func TestCoverArcsMatchesReference(t *testing.T) {
	var state uint64 = 0x2545f4914f6cdd1d
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for iter := 0; iter < 2000; iter++ {
		data := make([]byte, 4*(1+int(next())%40))
		for i := range data {
			data[i] = next()
		}
		checkCoverArcs(t, coverArcsAlphas[iter%len(coverArcsAlphas)], data)
	}
}
