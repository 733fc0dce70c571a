package geom

import (
	"fmt"
	"sort"
	"strings"
)

// This file holds the reference arc-set implementation of cover_α that
// the Cover kernel must agree with decision for decision: Coverage
// builds the arc set from scratch (normalize, sort, merge) and Equal
// compares two sets endpoint by endpoint. The coverage tests, the
// gap/coverage duality fuzzer and FuzzCoverageKernel run against it.

func (a arc) length() float64 { return a.end - a.start }

// ArcSet is a union of arcs on the unit circle. It represents
// cover_α(dir) from §3.1 of the paper: the set of bearings within α/2 of
// some direction in dir. The zero value is the empty set.
type ArcSet struct {
	full bool
	arcs []arc
}

// Coverage computes cover_α(dirs): the union over d ∈ dirs of the arc
// [d-α/2, d+α/2]. A non-positive alpha with no directions yields the
// empty set; alpha ≥ 2π or a direction set with no α-gap yields the full
// circle.
func Coverage(dirs []float64, alpha float64) ArcSet {
	if len(dirs) == 0 {
		return ArcSet{}
	}
	if alpha >= TwoPi {
		return ArcSet{full: true}
	}
	// Duality with the gap test: the circle is fully covered exactly when
	// no counterclockwise gap between consecutive directions exceeds α.
	if !HasGap(dirs, alpha) {
		return ArcSet{full: true}
	}

	half := alpha / 2
	raw := make([]arc, 0, len(dirs)+1)
	for _, d := range dirs {
		start := Normalize(d - half)
		end := start + alpha
		if end > TwoPi {
			raw = append(raw, arc{start, TwoPi}, arc{0, end - TwoPi})
		} else {
			raw = append(raw, arc{start, end})
		}
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i].start < raw[j].start })

	merged := raw[:1]
	for _, a := range raw[1:] {
		last := &merged[len(merged)-1]
		if a.start <= last.end+Eps {
			if a.end > last.end {
				last.end = a.end
			}
		} else {
			merged = append(merged, a)
		}
	}
	return ArcSet{arcs: merged}
}

// IsFull reports whether the set covers the entire circle.
func (s ArcSet) IsFull() bool { return s.full }

// IsEmpty reports whether the set covers nothing.
func (s ArcSet) IsEmpty() bool { return !s.full && len(s.arcs) == 0 }

// TotalLength returns the total angular measure covered, in [0, 2π].
func (s ArcSet) TotalLength() float64 {
	if s.full {
		return TwoPi
	}
	var sum float64
	for _, a := range s.arcs {
		sum += a.length()
	}
	return sum
}

// Contains reports whether bearing theta is covered (within Eps).
func (s ArcSet) Contains(theta float64) bool {
	if s.full {
		return true
	}
	t := Normalize(theta)
	for _, a := range s.arcs {
		if t >= a.start-Eps && t <= a.end+Eps {
			return true
		}
	}
	return false
}

// Equal reports whether two arc sets cover the same bearings, up to the
// angular tolerance tol applied to each arc endpoint.
func (s ArcSet) Equal(o ArcSet, tol float64) bool {
	if s.full || o.full {
		return s.full == o.full
	}
	a, b := s.canonical(), o.canonical()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if absf(a[i].start-b[i].start) > tol || absf(a[i].end-b[i].end) > tol {
			return false
		}
	}
	return true
}

// canonical merges the wrap-around split so that structurally different
// but geometrically identical sets compare equal. A set that covers the
// 0 bearing is rotated so that its arc crossing 0 is expressed as a
// single arc starting at a negative angle.
func (s ArcSet) canonical() []arc {
	if len(s.arcs) < 2 {
		return s.arcs
	}
	first, last := s.arcs[0], s.arcs[len(s.arcs)-1]
	if first.start <= Eps && last.end >= TwoPi-Eps {
		merged := make([]arc, 0, len(s.arcs)-1)
		merged = append(merged, arc{last.start - TwoPi, first.end})
		merged = append(merged, s.arcs[1:len(s.arcs)-1]...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].start < merged[j].start })
		return merged
	}
	return s.arcs
}

// String implements fmt.Stringer; bearings are printed in degrees.
func (s ArcSet) String() string {
	if s.full {
		return "{full circle}"
	}
	if len(s.arcs) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.arcs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "[%.2f°, %.2f°]", Degrees(a.start), Degrees(a.end))
	}
	b.WriteByte('}')
	return b.String()
}

// SameCoverage reports whether two direction sets yield identical
// α-coverage. It is the test the shrink-back optimization performs when
// deciding whether dropping high-power discoveries is safe.
func SameCoverage(dirsA, dirsB []float64, alpha float64) bool {
	return Coverage(dirsA, alpha).Equal(Coverage(dirsB, alpha), 10*Eps)
}
