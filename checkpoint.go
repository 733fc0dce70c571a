package cbtc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"

	"cbtc/internal/codec"
	"cbtc/internal/core"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
)

// Checkpoint/restore errors. The codec-level sentinels are re-exported
// so callers can classify failures with errors.Is without reaching into
// the internal package.
var (
	// ErrConfigMismatch reports a checkpoint produced under a different
	// engine configuration than the one restoring it. A checkpoint is only
	// meaningful under the exact protocol parameters (α, radio model,
	// optimization stack, tag quantization) that produced it — restoring
	// under anything else would silently change what the serialized fixed
	// point means, so it is refused instead.
	ErrConfigMismatch = errors.New("cbtc: checkpoint engine config mismatch")
	// ErrNotCheckpoint reports input that is not a cbtc checkpoint at all.
	ErrNotCheckpoint = codec.ErrBadMagic
	// ErrCheckpointVersion reports a checkpoint written by an
	// incompatible format version.
	ErrCheckpointVersion = codec.ErrVersion
	// ErrCheckpointKind reports a session checkpoint fed to RestoreFleet
	// or a fleet checkpoint fed to RestoreSession.
	ErrCheckpointKind = codec.ErrWrongKind
	// ErrCheckpointCorrupt reports a structurally invalid or truncated
	// checkpoint.
	ErrCheckpointCorrupt = codec.ErrCorrupt
)

// fingerprint captures the engine's full resolved protocol configuration
// in the checkpoint format's fixed-width shape.
func (e *Engine) fingerprint() codec.EngineConfig {
	fc := codec.EngineConfig{
		Alpha:             e.cfg.Alpha,
		MaxRadius:         e.model.MaxRadius,
		PathLossExponent:  e.model.Exponent,
		ShrinkBack:        e.opts.ShrinkBack,
		AsymmetricRemoval: e.opts.AsymmetricRemoval,
		PairwiseRemoval:   e.opts.PairwiseRemoval,
		PairwisePolicy:    uint8(e.opts.PairwisePolicy),
		ScheduleFactor:    e.scheduleFactor,
		RefLoss:           e.model.RefLoss,
		BatteryCapacity:   e.batteryCap,
		BatteryDrain:      e.batteryDrain,
	}
	if e.shadowed {
		fc.RadioKind = 1
		fc.ShadowSigmaDB = e.shadowSigma
		fc.ShadowSeed = e.shadowSeed
	}
	return fc
}

// checkFingerprint verifies a checkpoint's embedded engine fingerprint
// against this engine's.
func (e *Engine) checkFingerprint(got codec.EngineConfig) error {
	if want := e.fingerprint(); got != want {
		return fmt.Errorf("%w: checkpoint %+v, engine %+v", ErrConfigMismatch, got, want)
	}
	return nil
}

// Checkpoint serializes the session's complete state to w in the
// versioned binary format of internal/codec: positions, liveness, the
// node rows, the §4 counters and the batteries. The maintained graphs
// are derived state and are not written. The session lock is held only
// while those vectors are copied — O(n), no per-edge work — so
// concurrent events resume immediately while the actual encoding
// streams from the frozen copy. The restored session
// (Engine.RestoreSession) is edge-identical to this one, including the
// ground-truth G_R, and continues producing byte-identical results
// under the same event schedule.
func (s *Session) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	st := s.exportLocked()
	s.mu.Unlock()
	return codec.EncodeSession(w, st)
}

// exportLocked freezes the session state for encoding. Positions,
// liveness and batteries are copied outright; the node rows copy only
// the outer slice header (installed discovery rows are immutable —
// every repair installs freshly-built rows). Everything else a live
// session holds (the pruned rows, N_α, G, G_R, the pairwise kernel, the
// reconfigurators, the spatial index, the Observe state) is derived
// state that restore rebuilds from these.
func (s *Session) exportLocked() *codec.SessionState {
	st := &codec.SessionState{
		Config: s.eng.fingerprint(),
		Pos:    append([]Point(nil), s.pos...),
		Alive:  append([]bool(nil), s.alive...),
		Nodes:  append([]core.NodeResult(nil), s.nodes...),
		Stats: codec.SessionCounters{
			Joins:        int64(s.stats.Joins),
			Leaves:       int64(s.stats.Leaves),
			Moves:        int64(s.stats.Moves),
			AngleChanges: int64(s.stats.AngleChanges),
			Regrows:      int64(s.stats.Regrows),
			Repairs:      int64(s.stats.Repairs),
		},
	}
	if s.battery != nil {
		st.Battery = append([]float64(nil), s.battery...)
	}
	return st
}

// RestoreSession rebuilds a Session from a checkpoint written by
// Session.Checkpoint, in the current format or in version 3, whose
// stored graphs are skipped. The checkpoint's engine fingerprint must
// match this engine exactly (ErrConfigMismatch otherwise); corrupt,
// truncated or alien input yields a typed error (ErrNotCheckpoint,
// ErrCheckpointVersion, ErrCheckpointKind, ErrCheckpointCorrupt), never
// a panic. The node rows are validated and the topology is rebuilt from
// them, so the restored session is edge-identical to the checkpointed
// one — N_α, G and the ground-truth G_R — and evolves identically under
// the same events, at any worker count.
func (e *Engine) RestoreSession(r io.Reader) (*Session, error) {
	st, err := codec.DecodeSession(r)
	if err != nil {
		return nil, err
	}
	if err := e.checkSessionState(st); err != nil {
		return nil, err
	}
	return e.sessionFromState(st, e.workers), nil
}

// checkSessionState runs every check restore makes on decoded session
// state beyond the decoder's own: the engine fingerprint, the battery
// vector's presence and length, and the node rows (validateNodeRows).
// State that passes restores: building the session from it
// (sessionFromState) derives the grid and the topology, which are pure
// functions of the checked vectors, and checks nothing further.
func (e *Engine) checkSessionState(st *codec.SessionState) error {
	if err := e.checkFingerprint(st.Config); err != nil {
		return err
	}
	if (st.Battery != nil) != e.battery {
		return fmt.Errorf("%w: battery vector present %v under battery model %v", ErrCheckpointCorrupt, st.Battery != nil, e.battery)
	}
	if st.Battery != nil && len(st.Battery) != len(st.Pos) {
		return fmt.Errorf("%w: battery vector holds %d nodes, session has %d", ErrCheckpointCorrupt, len(st.Battery), len(st.Pos))
	}
	return validateNodeRows(st)
}

// sessionFromState builds a live session around decoded state that
// checkSessionState accepted. The serialized vectors are adopted
// directly (the decoder built them fresh), and everything else is
// derived from them, which is exact: the grid is a pure function of the
// positions and liveness vector, and the maintained topology
// (buildTopology, shared with the constructors) of the node rows,
// positions and liveness. No §4 state machine outlives a batch; the
// next batch builds them from the restored rows.
func (e *Engine) sessionFromState(st *codec.SessionState, workers int) *Session {
	s := &Session{
		eng:     e,
		workers: workers,
		pos:     st.Pos,
		alive:   st.Alive,
		nodes:   st.Nodes,
		idx:     spatial.New(st.Pos, e.prop.MaxLinkRadius()),
		stats: SessionStats{
			Joins:        int(st.Stats.Joins),
			Leaves:       int(st.Stats.Leaves),
			Moves:        int(st.Stats.Moves),
			AngleChanges: int(st.Stats.AngleChanges),
			Regrows:      int(st.Stats.Regrows),
			Repairs:      int(st.Stats.Repairs),
		},
	}
	for id, alive := range st.Alive {
		if !alive {
			s.idx.Remove(id)
			continue
		}
		s.live++
	}
	// The battery vector is adopted directly; the residual moments Observe
	// reports are folded fresh from it each read, so nothing else needs
	// reconstruction.
	s.battery = st.Battery
	// buildTopology fails only on cancellation, and restore has no caller
	// context: the background one never cancels.
	_ = s.buildTopology(context.Background())
	return s
}

// validateNodeRows checks the node rows restore rebuilds the topology
// from, beyond the per-entry checks of the decoder (ids in range, never
// the node itself, finite fields): no row names a neighbor twice, and
// departed nodes are isolated — their rows are empty and no row names
// them.
func validateNodeRows(st *codec.SessionState) error {
	seen := make([]int, len(st.Nodes)) // seen[v] == u+1: row u named v
	for u, nr := range st.Nodes {
		for _, nb := range nr.Neighbors {
			v := nb.ID
			if !st.Alive[u] || !st.Alive[v] {
				return fmt.Errorf("%w: edge %d–%d touches a departed node", ErrCheckpointCorrupt, u, v)
			}
			if seen[v] == u+1 {
				return fmt.Errorf("%w: node %d names neighbor %d twice", ErrCheckpointCorrupt, u, v)
			}
			seen[v] = u + 1
		}
	}
	return nil
}

// Checkpoint serializes the fleet's complete state to w: the base
// engine fingerprint, and per member its own fingerprint, kind, tick
// weight, RNG stream position, tick clock/target, event counter,
// statistics accumulators and full session state. The fleet lock is
// held only while the per-network snapshots are captured (positions,
// liveness, batteries, the node rows' slice headers and ~20-byte RNG
// states; no graph is cloned); encoding streams off-lock, so a fleet
// driven tick-by-tick (TickEvents) keeps ticking while a checkpoint is
// written. A checkpoint may be taken at ragged
// per-member clocks — after a cancelled run, or under skewed external
// traffic — and restores to exactly that raggedness. The wall-clock
// scheduling telemetry (MemberSchedStats) is deliberately not captured:
// a restored fleet starts with fresh flow-rate estimates.
//
// Checkpoint refuses to run while any member is quarantined — a
// quarantined session may be mid-mutation and serializing it would
// launder a poisoned state into the durability chain — returning the
// *QuarantineError instead; readmit (Fleet.Readmit) the casualties
// first. Durability drivers pair this with a write-ahead event log, so
// refusing a checkpoint during quarantine loses nothing.
func (f *Fleet) Checkpoint(w io.Writer) error {
	f.mu.Lock()
	var casualties []*fleetNetwork
	for _, net := range f.nets {
		if net.quarantined() {
			casualties = append(casualties, net)
		}
	}
	if len(casualties) > 0 {
		f.mu.Unlock()
		return quarantineError(casualties)
	}
	st := &codec.FleetState{
		Config: f.eng.fingerprint(),
		Nets:   make([]codec.NetworkState, len(f.nets)),
	}
	var err error
	for i, net := range f.nets {
		var rngState []byte
		if rngState, err = net.src.MarshalBinary(); err != nil {
			break
		}
		net.sess.mu.Lock()
		ss := net.sess.exportLocked()
		net.sess.mu.Unlock()
		st.Nets[i] = codec.NetworkState{
			Config:     net.eng.fingerprint(),
			Kind:       uint8(net.kind),
			Weight:     int64(net.weight),
			RNG:        rngState,
			Done:       net.done.Load(),
			Target:     net.target.Load(),
			Events:     net.events,
			Degree:     net.series.Degree,
			Radius:     net.series.Radius,
			Components: net.series.Components,
			Energy:     net.series.Energy,
			Residual:   net.series.Residual,
			EnergyVar:  net.series.EnergyVar,
			Session:    *ss,
		}
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return codec.EncodeFleet(w, st)
}

// engineFromFingerprint rebuilds a member's derived engine from its
// checkpointed fingerprint. The rebuilt engine's own fingerprint must
// round-trip to the input exactly — anything else means the fingerprint
// encodes a configuration the option surface cannot express, which is
// corruption, not a restorable state.
func engineFromFingerprint(fc codec.EngineConfig, workers int) (*Engine, error) {
	if fc.RadioKind > 1 {
		// The option surface only expresses the pure power law (0) and
		// log-distance shadowing (1).
		return nil, fmt.Errorf("%w: member fingerprint requests unknown radio kind %d", ErrCheckpointCorrupt, fc.RadioKind)
	}
	s := settings{
		cfg: Config{
			Alpha:             fc.Alpha,
			ShrinkBack:        fc.ShrinkBack,
			AsymmetricRemoval: fc.AsymmetricRemoval,
			PairwiseRemoval:   fc.PairwiseRemoval,
			PairwisePolicy:    PairwisePolicy(fc.PairwisePolicy),
		},
		radio:          radio.Model{Exponent: fc.PathLossExponent, MaxRadius: fc.MaxRadius},
		scheduleFactor: fc.ScheduleFactor,
		workers:        workers,
	}
	if fc.RadioKind == 1 {
		s.useShadow = true
		s.shadowSigma = fc.ShadowSigmaDB
		s.shadowSeed = fc.ShadowSeed
	}
	if fc.BatteryCapacity > 0 {
		s.useBattery = true
		s.batteryCap = fc.BatteryCapacity
		s.batteryDrain = fc.BatteryDrain
	}
	eng, err := newEngine(s)
	if err != nil {
		return nil, fmt.Errorf("%w: member fingerprint does not validate: %v", ErrCheckpointCorrupt, err)
	}
	if got := eng.fingerprint(); got != fc {
		return nil, fmt.Errorf("%w: member fingerprint %+v does not round-trip (got %+v)", ErrCheckpointCorrupt, fc, got)
	}
	return eng, nil
}

// RestoreFleet rebuilds a Fleet from a checkpoint written by
// Fleet.Checkpoint, under this engine's worker budget (build the engine
// with WithWorkers to restore onto a different pool size — per-network
// results are worker-count invariant either way). The checkpoint's base
// fingerprint must match this engine exactly (ErrConfigMismatch);
// heterogeneous members rebuild their derived engines from their own
// embedded fingerprints. Invalid input yields the same typed errors as
// RestoreSession, for the lowest-index member that fails: every check
// runs over all members in index order before any member is built, and
// the members are then built on the same shard pool NewFleet builds
// them on. The restored fleet's sessions are edge-identical to the
// originals, its RNG streams and per-member tick clocks resume at their
// exact positions — including ragged ones — and continuing it (Run,
// Advance or TickEvents) produces byte-identical per-member results to
// the uninterrupted fleet.
func (e *Engine) RestoreFleet(r io.Reader) (*Fleet, error) {
	st, nets, err := e.decodeFleet(r)
	if err != nil {
		return nil, err
	}
	f := &Fleet{eng: e, workers: e.workers, nets: nets}
	plan := planShards(f.workers, len(nets))
	// Building checks nothing, so it cannot fail; the pool never
	// cancels.
	_ = plan.run(context.Background(), len(nets), func(_ context.Context, i int) error {
		nets[i].sess = nets[i].eng.sessionFromState(&st.Nets[i].Session, plan.inner)
		return nil
	})
	return f, nil
}

// VerifyFleetCheckpoint runs every check RestoreFleet makes on a fleet
// checkpoint and returns the clocks the restored fleet's Watermarks
// would report, without building the fleet: no member gets a spatial
// index, a G_R or a topology. It rejects exactly the input RestoreFleet
// rejects, with the same error. Building would add no check: once the
// node rows validate, a member's derived graphs are pure functions of
// its rows, positions and liveness, so a checkpoint that verifies
// restores.
func (e *Engine) VerifyFleetCheckpoint(r io.Reader) (FleetWatermarks, error) {
	_, nets, err := e.decodeFleet(r)
	if err != nil {
		return FleetWatermarks{}, err
	}
	return (&Fleet{nets: nets}).Watermarks(), nil
}

// decodeFleet decodes a fleet checkpoint and runs every check restore
// makes on it: the base fingerprint, then each member's in index order,
// so the error reported is the lowest-index member's. It returns every
// member's slot without its session, which the caller builds from the
// returned state.
func (e *Engine) decodeFleet(r io.Reader) (*codec.FleetState, []*fleetNetwork, error) {
	st, err := codec.DecodeFleet(r)
	if err != nil {
		return nil, nil, err
	}
	if err := e.checkFingerprint(st.Config); err != nil {
		return nil, nil, err
	}
	if len(st.Nets) == 0 {
		return nil, nil, fmt.Errorf("%w: fleet checkpoint holds no networks", ErrCheckpointCorrupt)
	}
	nets := make([]*fleetNetwork, len(st.Nets))
	for i := range st.Nets {
		if nets[i], err = e.networkFromState(i, &st.Nets[i]); err != nil {
			return nil, nil, err
		}
	}
	return st, nets, nil
}

// networkFromState checks one fleet member's checkpointed state and
// rebuilds its slot, all but the session: the member engine (derived
// from the embedded fingerprint when it differs from the restoring
// engine's), the RNG stream, the clocks, the event counter and the
// accumulators. The caller builds the session with sessionFromState.
func (e *Engine) networkFromState(i int, ns *codec.NetworkState) (*fleetNetwork, error) {
	eng := e
	if ns.Config != e.fingerprint() {
		var err error
		if eng, err = engineFromFingerprint(ns.Config, e.workers); err != nil {
			return nil, fmt.Errorf("network %d: %w", i, err)
		}
	}
	src := &rand.PCG{}
	if err := src.UnmarshalBinary(ns.RNG); err != nil {
		return nil, fmt.Errorf("%w: network %d rng state: %v", ErrCheckpointCorrupt, i, err)
	}
	if err := eng.checkSessionState(&ns.Session); err != nil {
		return nil, fmt.Errorf("network %d: %w", i, err)
	}
	net := &fleetNetwork{
		net:    i,
		eng:    eng,
		kind:   MemberKind(ns.Kind),
		weight: int(ns.Weight),
		src:    src,
		rng:    rand.New(src),
		events: ns.Events,
		series: TickSeries{
			Degree:     ns.Degree,
			Radius:     ns.Radius,
			Components: ns.Components,
			Energy:     ns.Energy,
			Residual:   ns.Residual,
			EnergyVar:  ns.EnergyVar,
		},
	}
	net.done.Store(ns.Done)
	net.target.Store(ns.Target)
	return net, nil
}

// Readmit restores quarantined member i from a fleet checkpoint written
// by Fleet.Checkpoint, re-admitting it to scheduling: the member's
// session, RNG stream, clock, event counter and accumulators all resume
// from the checkpointed state — a known-good fixed point — and its
// health returns to MemberHealthy. The member's spec (kind, weight,
// engine fingerprint) must match the checkpoint's slot for network i,
// and the checkpoint's base fingerprint must match the fleet engine
// (ErrConfigMismatch otherwise).
//
// The readmitted clock is the checkpoint's: if the checkpoint predates
// the quarantine, the member resumes behind the rest of the fleet (its
// target is aligned to its restored clock — the raggedness is visible
// in Watermarks) and its private RNG stream replays the exact event
// sequence it would have generated, so a readmitted TickFunc-driven
// member re-converges onto the byte-identical history. Event-driven
// members (TickEvents) need their post-checkpoint batches replayed by
// the driver — the job of cmd/fleetd's write-ahead log.
//
// Readmit must not be called while a Run, Advance or TickEvents is in
// flight.
func (f *Fleet) Readmit(i int, r io.Reader) error {
	if i < 0 || i >= len(f.nets) {
		return fmt.Errorf("%w: no network %d in a fleet of %d", ErrBadConfig, i, len(f.nets))
	}
	st, err := codec.DecodeFleet(r)
	if err != nil {
		return err
	}
	if err := f.eng.checkFingerprint(st.Config); err != nil {
		return err
	}
	if len(st.Nets) != len(f.nets) {
		return fmt.Errorf("%w: checkpoint holds %d networks, fleet has %d", ErrConfigMismatch, len(st.Nets), len(f.nets))
	}
	net, err := f.eng.networkFromState(i, &st.Nets[i])
	if err != nil {
		return err
	}
	net.sess = net.eng.sessionFromState(&st.Nets[i].Session, planShards(f.workers, len(f.nets)).inner)
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.nets[i]
	if !old.quarantined() {
		return fmt.Errorf("%w: network %d is not quarantined", ErrBadConfig, i)
	}
	if net.kind != old.kind || net.weight != old.weight || net.eng.fingerprint() != old.eng.fingerprint() {
		return fmt.Errorf("%w: checkpoint slot %d describes a different member (kind %s weight %d)", ErrConfigMismatch, i, net.kind, net.weight)
	}
	// Re-align the target with the restored clock: whatever the member
	// was asked to do between the checkpoint and the quarantine is the
	// driver's to re-request (Advance) or replay (TickEvents).
	net.target.Store(net.done.Load())
	f.nets[i] = net
	return nil
}
