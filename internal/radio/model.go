// Package radio models the wireless propagation substrate assumed by the
// paper: a power function p(d) giving the minimum transmission power
// needed to establish a link at distance d, a common maximum power P with
// p(R) = P, and the ability to estimate the needed power for a link from
// the transmission and reception powers of a received message (§2 of the
// paper calls this assumption "reasonable in practice").
//
// The model normalizes receiver sensitivity to 1: a message transmitted
// with power tx is received at distance d with power tx/attenuation(d),
// and is decodable iff that is at least 1, i.e. iff tx ≥ p(d).
package radio

import (
	"errors"
	"fmt"
	"math"
)

// Common path-loss exponents (Rappaport, Wireless Communications).
const (
	// FreeSpaceExponent is the free-space path-loss exponent n = 2.
	FreeSpaceExponent = 2.0
	// UrbanExponent is a typical urban-environment exponent n = 4.
	UrbanExponent = 4.0
)

// ErrBadModel reports an invalid radio model configuration.
var ErrBadModel = errors.New("radio: invalid model")

// Model is a deterministic path-loss radio model with transmission power
// p(d) = RefLoss · dⁿ and maximum communication radius R. The zero value
// is not usable; construct models with NewModel or Default.
type Model struct {
	// Exponent is the path-loss exponent n ≥ 1 (typically 2–4).
	Exponent float64
	// MaxRadius is R, the maximum distance at which two nodes can
	// communicate when transmitting with maximum power.
	MaxRadius float64
	// RefLoss is the proportionality constant of the power law. It scales
	// all powers uniformly and defaults to 1.
	RefLoss float64
}

// NewModel validates and returns a radio model.
func NewModel(exponent, maxRadius, refLoss float64) (Model, error) {
	m := Model{Exponent: exponent, MaxRadius: maxRadius, RefLoss: refLoss}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// Default returns the model used throughout the paper's evaluation:
// free-space exponent n = 2, maximum radius R, unit reference loss.
func Default(maxRadius float64) Model {
	return Model{Exponent: FreeSpaceExponent, MaxRadius: maxRadius, RefLoss: 1}
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	switch {
	case math.IsNaN(m.Exponent) || m.Exponent < 1:
		return fmt.Errorf("%w: exponent %v must be ≥ 1", ErrBadModel, m.Exponent)
	case math.IsNaN(m.MaxRadius) || math.IsInf(m.MaxRadius, 0) || m.MaxRadius <= 0:
		return fmt.Errorf("%w: max radius %v must be finite and > 0", ErrBadModel, m.MaxRadius)
	case math.IsNaN(m.RefLoss) || m.RefLoss <= 0:
		return fmt.Errorf("%w: reference loss %v must be > 0", ErrBadModel, m.RefLoss)
	}
	return nil
}

// PowerFor returns p(d), the minimum transmission power needed to reach a
// receiver at distance d. PowerFor(0) = 0.
//
// The free-space law squares d with one multiplication where d·d is a
// finite normal number, 2⁻⁵¹¹ ≤ d < 2⁵¹¹: there math.Pow(d, 2) rounds
// the same product of d's mantissa with itself and only rescales it
// exactly, so both give the same bits. Every other distance and
// exponent goes through math.Pow.
func (m Model) PowerFor(d float64) float64 {
	if d <= 0 {
		return 0
	}
	if m.Exponent == 2 && d >= 0x1p-511 && d < 0x1p511 {
		return m.RefLoss * (d * d)
	}
	return m.RefLoss * math.Pow(d, m.Exponent)
}

// RangeFor returns the maximum distance reachable with transmission
// power p (the inverse of PowerFor). RangeFor(0) = 0.
func (m Model) RangeFor(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Pow(p/m.RefLoss, 1/m.Exponent)
}

// MaxPower returns P = p(R), the common maximum transmission power.
func (m Model) MaxPower() float64 { return m.PowerFor(m.MaxRadius) }

// Attenuation returns the power division factor over distance d, so that
// rx = tx / Attenuation(d). Attenuation(d) = p(d) because receiver
// sensitivity is normalized to 1. Attenuation of a zero distance is 1
// (no loss).
func (m Model) Attenuation(d float64) float64 {
	if d <= 0 {
		return 1
	}
	return m.PowerFor(d)
}

// ReceivedPower returns the reception power of a message transmitted with
// power tx over distance d.
func (m Model) ReceivedPower(tx, d float64) float64 {
	return tx / m.Attenuation(d)
}

// Reaches reports whether a transmission with power tx is decodable at
// distance d (reception power at least the normalized sensitivity 1).
// A small relative tolerance keeps boundary links — the paper's
// constructions place nodes at distance exactly R — inside the graph.
func (m Model) Reaches(tx, d float64) bool {
	return tx >= m.PowerFor(d)*(1-1e-12)
}

// NeededPower estimates p(d(u,v)) from the transmission power tx a
// message was sent with and the reception power rx it arrived with.
// This is the estimate the paper assumes each node can perform (§2).
func (m Model) NeededPower(tx, rx float64) float64 {
	if rx <= 0 {
		return math.Inf(1)
	}
	return tx / rx
}

// EstimateDistance estimates the sender distance from the transmission
// and reception powers of a received message.
func (m Model) EstimateDistance(tx, rx float64) float64 {
	return m.RangeFor(m.NeededPower(tx, rx))
}
