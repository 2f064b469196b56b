// Package energy models the battery of a mobile host.
//
// It implements the linear, state-based consumption model the paper takes
// from Feeney's measurements of the Cabletron Roamabout 802.11 DS card
// (via the Span paper): a host draws constant power determined by its
// radio mode, plus a constant GPS draw while awake. The remaining charge
// is the time integral of that power.
//
// The paper classifies remaining capacity R_brc = remaining/full into
// three bands used by the gateway election rules: upper (R_brc > 0.6),
// boundary (0.2 < R_brc ≤ 0.6) and lower (R_brc ≤ 0.2).
package energy

import (
	"fmt"
	"math"
)

// Mode is the radio state a host is in. Each mode has a constant power
// draw.
type Mode int

const (
	// Idle: transceiver on, neither transmitting nor receiving.
	Idle Mode = iota
	// Transmit: actively sending a frame.
	Transmit
	// Receive: actively receiving a frame.
	Receive
	// Sleep: transceiver off. Only the RAS (free) can wake the host.
	Sleep
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Idle:
		return "idle"
	case Transmit:
		return "transmit"
	case Receive:
		return "receive"
	case Sleep:
		return "sleep"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Level is the paper's three-band classification of remaining capacity.
type Level int

const (
	// Lower: R_brc ≤ 0.2.
	Lower Level = iota
	// Boundary: 0.2 < R_brc ≤ 0.6.
	Boundary
	// Upper: R_brc > 0.6.
	Upper
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case Lower:
		return "lower"
	case Boundary:
		return "boundary"
	case Upper:
		return "upper"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ClassifyRbrc maps a remaining-capacity ratio to its level band.
func ClassifyRbrc(rbrc float64) Level {
	switch {
	case rbrc > 0.6:
		return Upper
	case rbrc > 0.2:
		return Boundary
	default:
		return Lower
	}
}

// Model holds the power draw of each mode in watts, plus the GPS draw
// charged whenever the host is not asleep.
type Model struct {
	TransmitW float64 // power while transmitting
	ReceiveW  float64 // power while receiving
	IdleW     float64 // power while idle (transceiver on)
	SleepW    float64 // power while asleep (transceiver off)
	GPSW      float64 // additional draw of the positioning device
}

// PaperModel returns the exact constants of the paper's §4: 1400/1000/830/
// 130 mW for transmit/receive/idle/sleep and 33 mW for GPS.
func PaperModel() Model {
	return Model{
		TransmitW: 1.400,
		ReceiveW:  1.000,
		IdleW:     0.830,
		SleepW:    0.130,
		GPSW:      0.033,
	}
}

// Power returns the total draw in mode m, including the GPS device. The
// paper charges GPS to every protocol (GRID, ECGRID, GAF alike); we charge
// it in every mode including sleep, which matches charging it uniformly
// across protocols and cancels out in comparisons.
func (m Model) Power(mode Mode) float64 {
	base := 0.0
	switch mode {
	case Transmit:
		base = m.TransmitW
	case Receive:
		base = m.ReceiveW
	case Idle:
		base = m.IdleW
	case Sleep:
		base = m.SleepW
	default:
		panic(fmt.Sprintf("energy: unknown mode %d", int(mode)))
	}
	return base + m.GPSW
}

// Battery tracks a host's remaining charge. The host (or its protocol)
// reports mode changes with SetMode; the battery accrues consumption
// lazily, integrating power over the time spent in each mode.
//
// A Battery with infinite capacity (IsInfinite) never depletes; GAF's
// Model 1 uses these for its always-on endpoint hosts.
type Battery struct {
	// power is Model.Power per mode, tabulated once at construction so
	// an accrual is one indexed load.
	power     [4]float64
	full      float64 // initial charge in joules; +Inf for infinite hosts
	remaining float64
	mode      Mode
	lastT     float64 // sim time of the last accrual
	dead      bool
	infinite  bool // full is +Inf

	// consumedByMode records joules spent per mode, for diagnostics and
	// the energy-breakdown metrics.
	consumedByMode [4]float64
}

// NewBattery returns a battery with the given initial charge in joules,
// starting in Idle mode at time zero.
func NewBattery(model Model, fullJoules float64) *Battery {
	if fullJoules <= 0 {
		panic("energy: non-positive capacity")
	}
	return &Battery{power: powerTable(model), full: fullJoules, remaining: fullJoules, mode: Idle}
}

// NewInfiniteBattery returns a battery that never depletes, used for GAF
// Model 1 endpoint hosts. Its R_brc stays 1.0 forever.
func NewInfiniteBattery(model Model) *Battery {
	return &Battery{power: powerTable(model), full: math.Inf(1), remaining: math.Inf(1), mode: Idle, infinite: true}
}

// powerTable returns model's draw in each mode, indexed by Mode.
func powerTable(model Model) [4]float64 {
	var t [4]float64
	for m := range t {
		t[m] = model.Power(Mode(m))
	}
	return t
}

// IsInfinite reports whether the battery never depletes.
func (b *Battery) IsInfinite() bool { return b.infinite }

// Mode returns the current mode.
func (b *Battery) Mode() Mode { return b.mode }

// accrue charges consumption for the interval [lastT, now].
func (b *Battery) accrue(now float64) {
	dt := now - b.lastT
	if dt < 0 {
		panic(fmt.Sprintf("energy: time moved backwards: %v -> %v", b.lastT, now))
	}
	b.lastT = now
	if b.dead || dt <= 0 {
		return
	}
	spent := b.power[b.mode] * dt
	if !b.infinite {
		if spent >= b.remaining {
			spent = b.remaining
		}
		b.remaining -= spent
		if b.remaining <= 0 {
			b.remaining = 0
			b.dead = true
		}
	}
	b.consumedByMode[b.mode] += spent
}

// SetMode switches the battery to the given mode at simulation time now,
// charging the time spent in the previous mode first. An unknown mode
// panics.
func (b *Battery) SetMode(now float64, mode Mode) {
	if uint(mode) >= uint(len(b.power)) {
		panic(fmt.Sprintf("energy: unknown mode %d", int(mode)))
	}
	b.accrue(now)
	b.mode = mode
}

// Drain removes joules from the remaining charge at time now, on top of
// the modal consumption (fault injection: battery shock). The drained
// energy is accounted to the current mode; draining to zero kills the
// battery like any other exhaustion. Infinite batteries ignore it.
func (b *Battery) Drain(now, joules float64) {
	b.accrue(now)
	if b.dead || b.infinite || joules <= 0 {
		return
	}
	if joules >= b.remaining {
		joules = b.remaining
	}
	b.remaining -= joules
	b.consumedByMode[b.mode] += joules
	if b.remaining <= 0 {
		b.remaining = 0
		b.dead = true
	}
}

// Remaining returns the charge left at time now, in joules.
func (b *Battery) Remaining(now float64) float64 {
	b.accrue(now)
	return b.remaining
}

// Consumed returns the total joules spent up to time now. For infinite
// batteries this is still finite and meaningful (it is what aen measures
// under GAF Model 1 for the forwarder population).
func (b *Battery) Consumed(now float64) float64 {
	b.accrue(now)
	total := 0.0
	for _, v := range b.consumedByMode {
		total += v
	}
	return total
}

// ConsumedIn returns the joules spent in a particular mode up to time now.
func (b *Battery) ConsumedIn(now float64, mode Mode) float64 {
	b.accrue(now)
	return b.consumedByMode[mode]
}

// Rbrc returns the ratio of remaining to full capacity at time now.
// Infinite batteries always report 1.0.
func (b *Battery) Rbrc(now float64) float64 {
	if b.infinite {
		return 1.0
	}
	b.accrue(now)
	return b.remaining / b.full
}

// Level returns the paper's election band for the battery at time now.
func (b *Battery) Level(now float64) Level {
	return ClassifyRbrc(b.Rbrc(now))
}

// Dead reports whether the battery is exhausted at time now. A dead host
// can no longer transmit, receive, or act as gateway.
func (b *Battery) Dead(now float64) bool {
	b.accrue(now)
	return b.dead
}

// TimeToEmpty returns how long the battery lasts from time now if it stays
// in the given mode. Infinite batteries return +Inf.
func (b *Battery) TimeToEmpty(now float64, mode Mode) float64 {
	if b.infinite {
		return math.Inf(1)
	}
	b.accrue(now)
	if uint(mode) >= uint(len(b.power)) {
		panic(fmt.Sprintf("energy: unknown mode %d", int(mode)))
	}
	return b.remaining / b.power[mode]
}

// Full returns the initial capacity in joules.
func (b *Battery) Full() float64 { return b.full }
