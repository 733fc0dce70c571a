// Package geom is the plane and circle geometry of CBTC(α): points and
// bearings, angles normalized to [0, 2π), cones, circles and convex
// hulls, the paper's gap-α test (HasGap, and its incremental form
// InsertSorted plus HasGapSorted that the growing phase runs), and
// Cover, the allocation-free kernel that decides whether a subset of a
// direction set keeps its α-coverage — the test behind shrink-back
// (§3.1) and the §4 reconfiguration. Coverage equality against a set
// that covers the whole circle is exactly the absence of an α-gap, so
// for interior nodes the kernel is the same linear gap scan.
package geom
