package main

import (
	"math"
	"slices"
)

// percentile returns the q-th percentile (0 ≤ q ≤ 100) of xs, linearly
// interpolated between the closest ranks (the "inclusive" definition:
// the 0th percentile is the minimum, the 100th the maximum). xs is not
// modified. An empty sample has no percentile and yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method), which is how run-to-run spread is judged.
// A single value is its own quartiles; an empty sample yields NaNs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	var out [3]float64
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value of xs, interpolated for even lengths.
func median(xs []float64) float64 { return percentile(xs, 50) }

// windowPeaks takes the peak of a reading repeated over a run as the
// median, over windows of a fixed number of readings, of each window's
// largest reading. A spell that lifts the readings raises the peaks of
// the windows it falls in, not the peak of the run.
type windowPeaks struct {
	size  int       // readings per window
	n     int       // readings in the open window
	peak  float64   // the open window's largest reading
	peaks []float64 // closed windows' largest readings
}

// add records one reading and reports whether it closed a window.
func (w *windowPeaks) add(v float64) bool {
	w.peak = max(w.peak, v)
	if w.n++; w.n < w.size {
		return false
	}
	w.peaks = append(w.peaks, w.peak)
	w.n, w.peak = 0, 0
	return true
}

// median is the median window peak. A run too short to close a window
// reports its open one.
func (w *windowPeaks) median() float64 {
	if len(w.peaks) == 0 {
		return w.peak
	}
	return median(w.peaks)
}
