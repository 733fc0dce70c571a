// Package codec implements the versioned binary serialization of
// Session and Fleet state — the durability layer behind
// Session.Checkpoint / Engine.RestoreSession and their Fleet
// counterparts, and the on-disk format of the fleetd daemon.
//
// # Format
//
// A checkpoint is a little-endian byte stream:
//
//	magic   "CBTC"            (4 bytes)
//	version uint16            (currently 4)
//	kind    uint8             (1 = session, 2 = fleet)
//	payload                   (kind-dependent, length-prefixed sections)
//	footer  uint32 0xC0DEC0DE (truncation sentinel)
//
// A session payload is the engine fingerprint and a body: node
// positions, the liveness bitset, each node's growing-phase outcome
// (p_{u,α}, the boundary bitset, a row-length vector and one flat stream
// of discovery entries), the §4 counters, and the residual batteries
// when the engine has a battery model. That is all of a session's
// state: N_α, G, G_R and the pruned rows are pure functions of the node
// rows, positions and liveness, so restore rebuilds them and the format
// carries none of them.
//
// # Compatibility and safety
//
// The payload embeds the engine configuration fingerprint that produced
// the state; restoring layers (package cbtc) must verify it against the
// restoring engine so a checkpoint can never silently continue under
// different protocol parameters. Decoding is total: any input — hostile,
// truncated, or bit-flipped — yields a typed error (ErrBadMagic,
// ErrVersion, ErrWrongKind, ErrCorrupt), never a panic, and decode
// memory stays proportional to the bytes actually supplied.
package codec

import (
	"errors"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/stats"
)

// Version is the checkpoint format version the encoders write. Version 4
// dropped the derived graphs: a session body ends after its batteries,
// and the fingerprint has no reserved non-contributing flag. The
// decoders also read version 3, whose session bodies end in a flag byte
// and, when it is set, a graph section (the pruned rows and the N_α, G
// and G_R arena dumps); they check its lengths, skip its bytes and build
// nothing from it, and they refuse a version-3 fingerprint whose
// reserved flag is set. Version 3 extended the fingerprint with the
// radio-model identity (reference loss, propagation kind, shadowing
// parameters) and the battery configuration, added per-node
// residual-battery vectors to session bodies, and added the
// residual/energy-variance streams to fleet members. Streams of any
// other version fail with ErrVersion.
const Version = 4

// versionV3 is the oldest format version the decoders still read.
const versionV3 = 3

// Kinds discriminate the two checkpoint payloads.
const (
	// KindSession marks a single-Session checkpoint.
	KindSession = 1
	// KindFleet marks a whole-Fleet checkpoint.
	KindFleet = 2
)

// magic identifies a cbtc checkpoint stream.
var magic = [4]byte{'C', 'B', 'T', 'C'}

// footer terminates a well-formed stream; its absence means truncation.
const footer uint32 = 0xC0DEC0DE

// Typed decode errors. Encoding only fails on writer errors, which pass
// through unwrapped.
var (
	// ErrBadMagic reports input that is not a cbtc checkpoint at all.
	ErrBadMagic = errors.New("codec: not a cbtc checkpoint")
	// ErrVersion reports a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("codec: unsupported checkpoint version")
	// ErrWrongKind reports a session checkpoint fed to the fleet decoder
	// or vice versa.
	ErrWrongKind = errors.New("codec: wrong checkpoint kind")
	// ErrCorrupt reports a structurally invalid or truncated checkpoint.
	ErrCorrupt = errors.New("codec: corrupt checkpoint")
)

// EngineConfig is the engine fingerprint embedded in every checkpoint:
// the full resolved protocol configuration of the engine that produced
// the state. Restore must only proceed when the restoring engine's
// fingerprint is identical — α, the radio model and the optimization
// stack all change what the serialized fixed point means.
type EngineConfig struct {
	// Alpha is the cone angle in radians (resolved, never zero).
	Alpha float64
	// MaxRadius is R, the maximum transmission radius.
	MaxRadius float64
	// PathLossExponent is the resolved path-loss exponent.
	PathLossExponent float64
	// ShrinkBack, AsymmetricRemoval and PairwiseRemoval mirror the
	// optimization stack.
	ShrinkBack, AsymmetricRemoval, PairwiseRemoval bool
	// PairwisePolicy is the resolved §3.3 policy ordinal.
	PairwisePolicy uint8
	// ScheduleFactor is the shrink-back quantization factor (0 = exact
	// tags).
	ScheduleFactor float64

	// RefLoss is the nominal model's reference loss.
	RefLoss float64
	// RadioKind identifies the propagation model: 0 = pure power law,
	// 1 = log-distance with per-link shadowing.
	RadioKind uint8
	// ShadowSigmaDB and ShadowSeed parameterize the shadowing realization
	// when RadioKind is 1; both zero otherwise.
	ShadowSigmaDB float64
	ShadowSeed    uint64
	// BatteryCapacity and BatteryDrain carry the engine's battery model;
	// capacity 0 means no battery.
	BatteryCapacity float64
	BatteryDrain    float64
}

// SessionCounters mirrors cbtc.SessionStats in fixed-width form.
type SessionCounters struct {
	Joins, Leaves, Moves, AngleChanges, Regrows, Repairs int64
}

// SessionState is the complete serializable state of one Session. All
// slices are indexed by node id over the session's full id space
// (departed nodes keep their slot). The maintained graphs are not part
// of it: restore derives them from the node rows.
type SessionState struct {
	// Config is the engine fingerprint the state was produced under.
	Config EngineConfig
	// Pos holds every node's position (last position for departed nodes).
	Pos []geom.Point
	// Alive flags live nodes.
	Alive []bool
	// Nodes holds each node's growing-phase outcome: the discovery row,
	// p_{u,α} and the boundary flag. Departed nodes hold the zero value.
	Nodes []core.NodeResult
	// Stats are the session's cumulative §4 counters.
	Stats SessionCounters
	// Battery holds each node's residual energy when the engine has a
	// battery model (Config.BatteryCapacity > 0); nil otherwise.
	Battery []float64
}

// NetworkState is one fleet member's slice of a FleetState.
type NetworkState struct {
	// Config is the member's own engine fingerprint — members are
	// heterogeneous, so each carries the full resolved configuration its
	// session state was produced under.
	Config EngineConfig
	// Kind is the member-kind ordinal (0 = oracle, 1 = protocol).
	Kind uint8
	// Weight is the member's tick budget per fleet round (≥ 1).
	Weight int64
	// RNG is the opaque serialized state of the network's private PCG
	// stream (math/rand/v2 PCG.MarshalBinary).
	RNG []byte
	// Done, Target and Events are the member's tick clock, tick target
	// and applied-event counter. Done may lag Target when the checkpoint
	// was taken after a cancelled run.
	Done, Target, Events int64
	// Degree, Radius, Components and Energy are the network's per-tick
	// accumulator states.
	Degree, Radius, Components, Energy stats.Stream
	// Residual and EnergyVar are the battery accumulator states; zero
	// values on members without a battery model.
	Residual, EnergyVar stats.Stream
	// Session is the member session's full state.
	Session SessionState
}

// FleetState is the complete serializable state of a Fleet.
type FleetState struct {
	// Config is the base engine fingerprint the fleet was built on;
	// members whose fingerprint equals it restore onto the restoring
	// engine directly, the rest get derived engines.
	Config EngineConfig
	// Nets holds every member network in fleet order.
	Nets []NetworkState
}
