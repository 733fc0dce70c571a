// Package proto implements the distributed CBTC(α) protocol of the
// paper's Figure 1 on top of the discrete-event simulator: the Hello/Ack
// growing phase, asymmetric-removal notifications (§3.2), and the
// Neighbor Discovery Protocol with join/leave/aChange reconfiguration
// (§4).
//
// The protocol is position-oblivious: nodes act only on the transmission
// power carried in messages, the measured reception power, and the
// measured angle of arrival — exactly the information the paper assumes.
package proto

import (
	"errors"
	"fmt"
	"math"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
)

// ErrBadConfig reports an invalid protocol configuration.
var ErrBadConfig = errors.New("proto: invalid config")

// BeaconPolicy selects the beacon power rule for the NDP (§4).
type BeaconPolicy int

const (
	// BeaconBasicPower is the correct §4 rule: beacon with the power of
	// the BASIC algorithm — enough to reach every node that ever sent a
	// Hello (the reverse edges of E_α), and maximum power for boundary
	// nodes. Guarantees re-joins are observed.
	BeaconBasicPower BeaconPolicy = iota + 1
	// BeaconShrunkPower is the buggy rule §4 warns about: beacon with
	// only the power needed for the shrunk-back neighbor set. Two
	// boundary nodes that shrank and later drift into range never hear
	// each other; the network can stay partitioned forever.
	BeaconShrunkPower
)

// String implements fmt.Stringer.
func (b BeaconPolicy) String() string {
	switch b {
	case BeaconBasicPower:
		return "basic-power"
	case BeaconShrunkPower:
		return "shrunk-power"
	default:
		return fmt.Sprintf("BeaconPolicy(%d)", int(b))
	}
}

// Config parameterizes the distributed protocol.
type Config struct {
	// Alpha is the cone angle.
	Alpha float64
	// P0 is the initial broadcast power p₀ of the growing phase. Zero
	// means MaxPower/1024.
	P0 float64
	// Increase is the power growth schedule; nil means doubling, the
	// paper's suggestion.
	Increase radio.Increase
	// RoundDuration is how long a node waits for Acks after each Hello
	// broadcast. Zero means 2·(latency+jitter)+1, which covers the
	// round trip in the worst case.
	RoundDuration float64
	// AsymRemoval enables the §3.2 notification messages: after
	// finishing, a node tells every Hello sender it did not itself
	// discover to drop the asymmetric edge.
	AsymRemoval bool

	// EnableNDP turns on beaconing and reconfiguration after the growing
	// phase finishes.
	EnableNDP bool
	// BeaconPeriod is the NDP beacon interval. Zero means 10.
	BeaconPeriod float64
	// LeaveTimeout is τ: a neighbor is considered failed when no beacon
	// arrives for this long. Zero means 3.5 beacon periods.
	LeaveTimeout float64
	// AngleThreshold is the bearing change that triggers an aChange
	// event. Zero means 0.15 rad.
	AngleThreshold float64
	// Beacons selects the §4 beacon power rule; zero means
	// BeaconBasicPower (the correct rule).
	Beacons BeaconPolicy
}

// withDefaults returns the config with zero fields resolved against the
// radio model and simulator delays.
func (c Config) withDefaults(m radio.Model, maxDelay float64) Config {
	if c.P0 == 0 {
		c.P0 = m.MaxPower() / 1024
	}
	if c.Increase == nil {
		c.Increase = radio.Doubling()
	}
	if c.RoundDuration == 0 {
		c.RoundDuration = 2*maxDelay + 1
	}
	if c.BeaconPeriod == 0 {
		c.BeaconPeriod = 10
	}
	if c.LeaveTimeout == 0 {
		c.LeaveTimeout = 3.5 * c.BeaconPeriod
	}
	if c.AngleThreshold == 0 {
		c.AngleThreshold = 0.15
	}
	if c.Beacons == 0 {
		c.Beacons = BeaconBasicPower
	}
	return c
}

// Validate checks the resolved configuration.
func (c Config) Validate(m radio.Model) error {
	if math.IsNaN(c.Alpha) || c.Alpha <= 0 || c.Alpha > geom.TwoPi {
		return fmt.Errorf("%w: alpha %v not in (0, 2π]", ErrBadConfig, c.Alpha)
	}
	if c.P0 <= 0 || c.P0 > m.MaxPower() {
		return fmt.Errorf("%w: p0 %v not in (0, max power]", ErrBadConfig, c.P0)
	}
	if c.RoundDuration <= 0 {
		return fmt.Errorf("%w: round duration %v must be > 0", ErrBadConfig, c.RoundDuration)
	}
	if c.BeaconPeriod <= 0 || c.LeaveTimeout <= c.BeaconPeriod {
		return fmt.Errorf("%w: leave timeout %v must exceed beacon period %v",
			ErrBadConfig, c.LeaveTimeout, c.BeaconPeriod)
	}
	return nil
}

// Message is the protocol's one message type: a kind and a power, held
// by value in the simulator's events and deliveries, so no message is
// boxed. A Hello carries its broadcast power in-band, as the paper's
// Figure 1 does ("the power used to broadcast the message is
// included"), and the Ack echoes it so that late Acks are tagged with
// the round that solicited them. Removal notices and beacons carry no
// power; every transmission power reaches the receiver in the Delivery
// envelope.
type Message struct {
	kind  msgKind
	power float64
}

// msgKind discriminates Message.
type msgKind uint8

const (
	msgHello msgKind = iota + 1
	msgAck
	msgRemove
	msgBeacon
)
