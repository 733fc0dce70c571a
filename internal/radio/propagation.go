package radio

import (
	"fmt"
	"math"
)

// reachTol is the relative tolerance of the reachability predicates: a
// link whose needed power equals the available power up to one part in
// 10¹² is considered established. It matches Model.Reaches, so the
// power-law model routed through the Propagation interface is
// bit-identical to the historical hardcoded paths.
const reachTol = 1e-12

// Propagation is the pluggable propagation authority: the single
// interface through which the oracle's power tags, the discrete-event
// simulator's delivery decisions, the baselines' maximum-power graph and
// Session repair all consult the radio substrate.
//
// The paper's uniform power law (Model) is the canonical implementation;
// LogDistance adds deterministic per-link log-normal-style shadowing in
// the spirit of the non-uniform path-loss literature (Sethu & Gerety).
// Implementations must be deterministic pure functions of (u, v, d) — the
// whole reproducibility story (worker-count invariance, checkpoint
// byte-identity) rests on it — and symmetric: LinkPower(u, v, d) ==
// LinkPower(v, u, d).
//
// The geometry/propagation split that keeps the spatial grid usable is
// encoded in the method pairs: MaxLinkRadius and RangeBound are
// conservative distance bounds that drive slack-widened grid queries,
// after which the per-link predicates (LinkInRange, LinkReaches) decide
// exactly.
type Propagation interface {
	// Validate checks the model parameters.
	Validate() error
	// Nominal returns the underlying power-law model: the hardware's
	// nominal power curve before per-link effects. Maximum transmit
	// power, power schedules and distance estimation all derive from it.
	Nominal() Model
	// MaxPower returns P, the common maximum transmission power
	// (identical to Nominal().MaxPower()).
	MaxPower() float64
	// MaxLinkRadius returns a distance no in-range link can exceed: the
	// radius spatial grids are built with. For the pure power law it is
	// exactly R; shadowed models widen it by the best-case gain.
	MaxLinkRadius() float64
	// RangeBound returns a distance no link reachable at transmission
	// power tx can exceed — the per-transmit analogue of MaxLinkRadius.
	RangeBound(tx float64) float64
	// DistancePure reports whether link power is a function of distance
	// alone (no per-link term). Every radio runs the same oracle growing
	// phase and the same max-power link rule; purity selects the
	// discovery sort key (distance for pure models, LinkPower otherwise)
	// and lets pure models skip the per-link LinkInRange re-check.
	DistancePure() bool
	// LinkPower returns p_{uv}(d), the minimum transmission power that
	// establishes the u→v link at distance d.
	LinkPower(u, v int, d float64) float64
	// LinkInRange reports whether u and v at distance d can communicate
	// at maximum power — the edge predicate of the maximum-power graph
	// G_R.
	LinkInRange(u, v int, d float64) bool
	// LinkReaches reports whether a transmission by u with power tx is
	// decodable by v at distance d.
	LinkReaches(u, v int, tx, d float64) bool
	// LinkRxPower returns the reception power at v of a message u
	// transmitted with power tx over distance d.
	LinkRxPower(u, v int, tx, d float64) float64
}

// Model implements Propagation with link power depending on distance
// alone: the paper's uniform power law.

// Nominal returns the model itself — the power law has no per-link
// effects to strip.
func (m Model) Nominal() Model { return m }

// MaxLinkRadius returns R: under the pure power law no link longer than
// the maximum radius exists.
func (m Model) MaxLinkRadius() float64 { return m.MaxRadius }

// RangeBound returns RangeFor(tx): the power law's reach bound is exact.
func (m Model) RangeBound(tx float64) float64 { return m.RangeFor(tx) }

// DistancePure reports that link power is a function of distance alone.
func (m Model) DistancePure() bool { return true }

// LinkPower returns p(d) for every link.
func (m Model) LinkPower(_, _ int, d float64) float64 { return m.PowerFor(d) }

// LinkInRange reports d ≤ R up to the boundary tolerance.
func (m Model) LinkInRange(_, _ int, d float64) bool {
	return d <= m.MaxRadius*(1+reachTol)
}

// LinkReaches applies the distance-only Reaches predicate to every link.
func (m Model) LinkReaches(_, _ int, tx, d float64) bool { return m.Reaches(tx, d) }

// LinkRxPower applies the distance-only attenuation to every link.
func (m Model) LinkRxPower(_, _ int, tx, d float64) float64 { return m.ReceivedPower(tx, d) }

// LogDistance is a deterministic log-distance path-loss model with
// bounded per-link shadowing: link (u, v) at distance d needs power
//
//	p_{uv}(d) = p(d) · 10^(S(u,v)/10)
//
// where p is the nominal power law of Base and S(u,v) ∈ [−SigmaDB,
// +SigmaDB] is a shadowing term in decibels hashed from (Seed, u, v).
// Unlike the i.i.d. log-normal fading of measurement models, S is a
// deterministic symmetric pure function of the node pair, so every layer
// — oracle, repair, simulator, baseline — sees the same world at any
// worker count, and a checkpointed session restores onto identical link
// physics. The zero value is not usable; construct with NewLogDistance.
type LogDistance struct {
	// Base is the nominal power-law model; its MaxRadius R and MaxPower
	// P = p(R) remain the hardware's limits.
	Base Model
	// SigmaDB bounds the per-link shadowing magnitude in decibels.
	// SigmaDB = 0 degenerates to Base (though via the impure code paths).
	SigmaDB float64
	// Seed selects the shadowing realization.
	Seed uint64
}

// NewLogDistance validates and returns a shadowed log-distance model.
func NewLogDistance(base Model, sigmaDB float64, seed uint64) (LogDistance, error) {
	l := LogDistance{Base: base, SigmaDB: sigmaDB, Seed: seed}
	if err := l.Validate(); err != nil {
		return LogDistance{}, err
	}
	return l, nil
}

// Validate checks the model parameters.
func (l LogDistance) Validate() error {
	if err := l.Base.Validate(); err != nil {
		return err
	}
	if math.IsNaN(l.SigmaDB) || math.IsInf(l.SigmaDB, 0) || l.SigmaDB < 0 {
		return fmt.Errorf("%w: shadowing sigma %v dB must be finite and ≥ 0", ErrBadModel, l.SigmaDB)
	}
	// Grids are built with the widened radius, so it must stay finite.
	if math.IsInf(l.MaxLinkRadius(), 0) {
		return fmt.Errorf("%w: shadowing sigma %v dB widens max radius %v past the float range", ErrBadModel, l.SigmaDB, l.Base.MaxRadius)
	}
	return nil
}

// Nominal returns the underlying power-law model.
func (l LogDistance) Nominal() Model { return l.Base }

// MaxPower returns the nominal maximum transmission power: shadowing
// perturbs per-link attenuation, not the hardware's power budget.
func (l LogDistance) MaxPower() float64 { return l.Base.MaxPower() }

// gainBound is the best-case distance stretch 10^(σ/(10n)): a link with
// the most favorable shadowing reaches gainBound× the nominal range.
func (l LogDistance) gainBound() float64 {
	return math.Pow(10, l.SigmaDB/(10*l.Base.Exponent))
}

// MaxLinkRadius returns R · 10^(σ/(10n)), the longest distance any link
// can bridge at maximum power under the most favorable shadowing.
func (l LogDistance) MaxLinkRadius() float64 {
	return l.Base.MaxRadius * l.gainBound()
}

// RangeBound widens the nominal range for tx by the best-case gain.
func (l LogDistance) RangeBound(tx float64) float64 {
	return l.Base.RangeFor(tx) * l.gainBound()
}

// DistancePure reports that link power depends on the node pair, not
// distance alone.
func (l LogDistance) DistancePure() bool { return false }

// ShadowDB returns the shadowing term S(u,v) ∈ [−SigmaDB, +SigmaDB] in
// decibels: a symmetric deterministic hash of (Seed, u, v).
func (l LogDistance) ShadowDB(u, v int) float64 {
	if l.SigmaDB == 0 {
		return 0
	}
	lo, hi := uint64(uint32(u)), uint64(uint32(v))
	if lo > hi {
		lo, hi = hi, lo
	}
	z := mix64(l.Seed + (lo+1)*0x9e3779b97f4a7c15)
	z = mix64(z + (hi+1)*0x9e3779b97f4a7c15)
	// Top 53 bits → uniform in [0,1), mapped to [−σ, +σ].
	f := float64(z>>11) / (1 << 53)
	return (2*f - 1) * l.SigmaDB
}

// linkGain returns the power factor 10^(S(u,v)/10).
func (l LogDistance) linkGain(u, v int) float64 {
	if l.SigmaDB == 0 {
		return 1
	}
	return math.Pow(10, l.ShadowDB(u, v)/10)
}

// LinkPower returns p(d) · 10^(S(u,v)/10).
func (l LogDistance) LinkPower(u, v int, d float64) float64 {
	return l.Base.PowerFor(d) * l.linkGain(u, v)
}

// LinkInRange reports whether the link is establishable at maximum
// power: the G_R edge predicate under shadowing.
func (l LogDistance) LinkInRange(u, v int, d float64) bool {
	return l.LinkReaches(u, v, l.Base.MaxPower(), d)
}

// LinkReaches reports tx ≥ p_{uv}(d) up to the boundary tolerance.
func (l LogDistance) LinkReaches(u, v int, tx, d float64) bool {
	return tx >= l.LinkPower(u, v, d)*(1-reachTol)
}

// LinkRxPower returns tx divided by the shadowed attenuation. A zero
// distance is lossless, as in Model.Attenuation.
func (l LogDistance) LinkRxPower(u, v int, tx, d float64) float64 {
	return tx / (l.Base.Attenuation(d) * l.linkGain(u, v))
}

// mix64 is a splitmix64 finalization round — the same avalanche used for
// per-stream seed decorrelation elsewhere in the repo.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
