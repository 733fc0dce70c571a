package netsim

import (
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
)

// refEvent is a queued event as the simulator stored it before the
// event slab: its (at, seq) position and its whole body, moved through
// the heap by value.
type refEvent[M any] struct {
	at  float64
	seq uint64
	ev  event[M]
}

// refHeap is the reference event queue: a binary min-heap over
// (at, seq) that swaps full events. The slab-backed queue must pop
// exactly its order.
type refHeap[M any] []refEvent[M]

func (h refHeap[M]) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap[M]) push(e refEvent[M]) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *refHeap[M]) pop() refEvent[M] {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = refEvent[M]{}
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && q.less(l, smallest) {
			smallest = l
		}
		if r < last && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// sameEvent compares two event bodies; a scripted callback is compared
// by presence, since funcs are not comparable.
func sameEvent(a, b event[uint32]) bool {
	return a.kind == b.kind && a.node == b.node && a.tkind == b.tkind &&
		a.fv == b.fv && a.del == b.del && (a.fn == nil) == (b.fn == nil)
}

// FuzzEventQueue drives the simulator's scheduling entry points —
// SetProcess inits, ScheduleAt callbacks, timers, unicast and broadcast
// deliveries (duplicated at random) — with times drawn from a handful of
// values so that they collide, interleaved with pops. Every pop of the
// slab-backed queue must return the event the reference heap pops: the
// same (at, seq) and the same body. The slab must never grow past the
// largest number of events queued at once.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 0, 4, 2, 1, 3, 4, 4, 4})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3, 4, 4, 1, 0, 0, 1, 1, 2, 2, 1, 3, 2, 4, 4, 4, 4})
	f.Add([]byte{1, 0, 0, 1, 1, 1, 0, 2, 1, 2, 0, 2, 4, 4, 0, 7, 0, 0, 4, 2, 3, 1, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := radio.Default(500)
		pos := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(10, 10)}
		s, err := New[uint32](pos, Options{Model: m, Latency: 1, DupProb: 0.3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var ref refHeap[uint32]
		peak := 0
		// mirror copies every event scheduled since seq `from` into the
		// reference, straight from the slab it was just written to.
		mirror := func(from uint64) {
			for _, e := range s.queue {
				if e.seq >= from {
					ref.push(refEvent[uint32]{at: e.at, seq: e.seq, ev: s.slab[e.slot]})
				}
			}
			peak = max(peak, len(s.queue))
		}
		pop := func() {
			e, ev := s.next()
			s.now = e.at
			r := ref.pop()
			if e.at != r.at || e.seq != r.seq || !sameEvent(ev, r.ev) {
				t.Fatalf("popped (at %v, seq %d, %+v), reference popped (at %v, seq %d, %+v)",
					e.at, e.seq, ev, r.at, r.seq, r.ev)
			}
		}
		for id := range pos {
			from := s.seq
			s.SetProcess(id, silent[uint32]{})
			mirror(from)
		}
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i]%5, int(data[i+1]), int(data[i+2])
			from := s.seq
			ctx := &Context[uint32]{sim: s, id: a % len(pos)}
			switch op {
			case 0:
				s.ScheduleAt(float64(b%8), func() {})
			case 1:
				ctx.SetTimer(float64(b%4), b%3, float64(a))
			case 2:
				ctx.Unicast(b%len(pos), m.MaxPower(), uint32(i))
			case 3:
				ctx.Broadcast(m.MaxPower(), uint32(i))
			case 4:
				if len(s.queue) > 0 {
					pop()
				}
			}
			mirror(from)
		}
		for len(s.queue) > 0 {
			pop()
		}
		if len(ref) != 0 {
			t.Fatalf("reference still holds %d events after the queue drained", len(ref))
		}
		if len(s.slab) > peak {
			t.Fatalf("slab holds %d slots, but at most %d events were queued at once", len(s.slab), peak)
		}
	})
}

// silent is a Process that ignores everything.
type silent[M any] struct{}

func (silent[M]) Init(*Context[M])                {}
func (silent[M]) Recv(*Context[M], Delivery[M])   {}
func (silent[M]) Timer(*Context[M], int, float64) {}
