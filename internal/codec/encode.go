package codec

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/stats"
)

// EncodeSession writes a session checkpoint to w at the current format
// version. The state is read only; it is safe to encode a snapshot that
// shares its immutable discovery rows with a live session.
func EncodeSession(w io.Writer, st *SessionState) error {
	e := newEncoder(w)
	e.header(KindSession)
	e.sessionState(st)
	e.u32(footer)
	return e.flush()
}

// EncodeFleet writes a fleet checkpoint to w at the current format
// version.
func EncodeFleet(w io.Writer, st *FleetState) error {
	e := newEncoder(w)
	e.header(KindFleet)
	e.engineConfig(&st.Config)
	e.u32(uint32(len(st.Nets)))
	for i := range st.Nets {
		n := &st.Nets[i]
		e.engineConfig(&n.Config)
		e.u8(n.Kind)
		e.i64(n.Weight)
		e.bytes(n.RNG)
		e.i64(n.Done)
		e.i64(n.Target)
		e.i64(n.Events)
		e.stream(&n.Degree)
		e.stream(&n.Radius)
		e.stream(&n.Components)
		e.stream(&n.Energy)
		e.stream(&n.Residual)
		e.stream(&n.EnergyVar)
		e.sessionBody(&n.Session)
	}
	e.u32(footer)
	return e.flush()
}

// encoder wraps a buffered writer with the primitive little-endian
// writes the format is made of. The first write error sticks; every
// subsequent write is a no-op, so encoding code reads straight-line.
type encoder struct {
	w   *bufio.Writer
	buf [8]byte
	err error
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriterSize(w, 1<<16)}
}

func (e *encoder) flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func (e *encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *encoder) u8(v uint8) { e.write([]byte{v}) }

func (e *encoder) u16(v uint16) {
	binary.LittleEndian.PutUint16(e.buf[:2], v)
	e.write(e.buf[:2])
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.write(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.write(e.buf[:8])
}

func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// bytes writes a length-prefixed opaque byte section.
func (e *encoder) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.write(p)
}

func (e *encoder) header(kind uint8) {
	e.write(magic[:])
	e.u16(Version)
	e.u8(kind)
}

func (e *encoder) engineConfig(c *EngineConfig) {
	e.f64(c.Alpha)
	e.f64(c.MaxRadius)
	e.f64(c.PathLossExponent)
	e.bool(c.ShrinkBack)
	e.bool(c.AsymmetricRemoval)
	e.bool(c.PairwiseRemoval)
	e.u8(c.PairwisePolicy)
	e.f64(c.ScheduleFactor)
	e.f64(c.RefLoss)
	e.u8(c.RadioKind)
	e.f64(c.ShadowSigmaDB)
	e.u64(c.ShadowSeed)
	e.f64(c.BatteryCapacity)
	e.f64(c.BatteryDrain)
}

func (e *encoder) stream(s *stats.Stream) {
	e.i64(s.Count)
	e.f64(s.Mean)
	e.f64(s.M2)
	e.f64(s.MinV)
	e.f64(s.MaxV)
}

// sessionState writes the config fingerprint followed by the session
// body — the standalone-session payload.
func (e *encoder) sessionState(st *SessionState) {
	e.engineConfig(&st.Config)
	e.sessionBody(st)
}

// sessionBody writes everything after the fingerprint. Fleet payloads
// embed it per network without repeating the shared config.
func (e *encoder) sessionBody(st *SessionState) {
	n := len(st.Pos)
	e.u32(uint32(n))
	e.points(st.Pos)
	e.bitset(st.Alive)

	// Per-node scalar vectors, then the discovery rows as one
	// length-vector + one flat entry stream.
	for i := range st.Nodes {
		e.f64(st.Nodes[i].GrowPower)
	}
	bounds := make([]bool, n)
	for i := range st.Nodes {
		bounds[i] = st.Nodes[i].Boundary
	}
	e.bitset(bounds)
	for i := range st.Nodes {
		e.u32(uint32(len(st.Nodes[i].Neighbors)))
	}
	for i := range st.Nodes {
		e.discoveries(st.Nodes[i].Neighbors)
	}

	e.i64(st.Stats.Joins)
	e.i64(st.Stats.Leaves)
	e.i64(st.Stats.Moves)
	e.i64(st.Stats.AngleChanges)
	e.i64(st.Stats.Regrows)
	e.i64(st.Stats.Repairs)

	e.bool(st.Battery != nil)
	for _, b := range st.Battery {
		e.f64(b)
	}
}

func (e *encoder) points(pts []geom.Point) {
	for _, p := range pts {
		e.f64(p.X)
		e.f64(p.Y)
	}
}

// bitset packs a bool vector 8 per byte (LSB first). The length is not
// written: callers always know it from the node count.
func (e *encoder) bitset(bits []bool) {
	var b byte
	for i, v := range bits {
		if v {
			b |= 1 << (i % 8)
		}
		if i%8 == 7 {
			e.u8(b)
			b = 0
		}
	}
	if len(bits)%8 != 0 {
		e.u8(b)
	}
}

// discoveries writes one node's discovery row as flat fixed-width
// entries: id int32, dist, dir, power float64 — 28 bytes each.
func (e *encoder) discoveries(row []core.Discovery) {
	for _, d := range row {
		e.u32(uint32(int32(d.ID)))
		e.f64(d.Dist)
		e.f64(d.Dir)
		e.f64(d.Power)
	}
}
