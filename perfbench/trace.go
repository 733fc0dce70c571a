package main

import (
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: the layer metric it feeds, its
// interval, the span that caused it and the op it belongs to. Spans are
// named after the per-layer metric they are summed into, so a
// breakdown needs no name mapping.
type span struct {
	name       string
	op         int   // op id; every span of one op shares it
	parent     int   // index of the causing span, -1 for an op root
	start, end int64 // ns since the recorder's base
}

// recorder keeps spans in memory for the whole run; they are folded
// into the per-layer table when the run ends. It is safe for concurrent
// use (fleet member ticks record from the scheduler's workers).
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span now and returns its id for end.
func (r *recorder) begin(name string, op, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: t, end: t})
	return len(r.spans) - 1
}

// end closes span id now.
func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, op, parent int, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: start, end: end})
	return len(r.spans) - 1
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes returns every span's duration minus the length of the union
// of its children's intervals. Children that overlap — member ticks on
// two scheduler workers — are counted once, so a parent's self time is
// the part of its interval no child covers.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - unionLength(s.start, s.end, spans, children[i])
	}
	return self
}

// unionLength is the total length of the union of the intervals of
// spans ids, clipped to [lo, hi].
func unionLength(lo, hi int64, spans []span, ids []int) int64 {
	iv := make([][2]int64, 0, len(ids))
	for _, c := range ids {
		a, b := max(spans[c].start, lo), min(spans[c].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, curA, curB int64
	for k, v := range iv {
		if k == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// breakdown is a traced run's per-layer table: the mean traced op time
// and, per span name, the mean self time per op. Remainder is the op
// time no layer span accounts for — the op root's own self time, less
// any time layers spent concurrently (then it is negative) — so the
// self times plus the remainder equal the op time exactly.
type breakdown struct {
	ops       int
	opNs      float64            // mean traced op duration
	selfNs    map[string]float64 // mean self time per op, by span name
	remainder float64            // opNs − Σ selfNs
}

// layerBreakdown folds the spans of every op root into a breakdown.
// Spans whose op has no root are ignored.
func layerBreakdown(spans []span) breakdown {
	self := selfTimes(spans)
	b := breakdown{selfNs: map[string]float64{}}
	roots := map[int]bool{}
	for _, s := range spans {
		if s.parent < 0 {
			roots[s.op] = true
			b.opNs += float64(s.end - s.start)
		}
	}
	b.ops = len(roots)
	if b.ops == 0 {
		return b
	}
	var layers float64
	for i, s := range spans {
		if s.parent >= 0 && roots[s.op] {
			b.selfNs[s.name] += float64(self[i])
			layers += float64(self[i])
		}
	}
	n := float64(b.ops)
	for k := range b.selfNs {
		b.selfNs[k] /= n
	}
	b.opNs /= n
	b.remainder = b.opNs - layers/n
	return b
}

// inUnit converts a per-op nanosecond figure to the unit its metric
// name declares: names ending in _us are microseconds, the rest ms.
func inUnit(name string, ns float64) float64 {
	if strings.HasSuffix(name, "_us") {
		return ns / 1e3
	}
	return ns / 1e6
}
