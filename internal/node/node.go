// Package node implements the mobile host: the glue between the physical
// substrates (battery, mobility, radio channel, RAS paging) and a routing
// protocol. A Host owns no policy — when to sleep, whom to elect, how to
// route — that is the attached Protocol's job. The Host provides:
//
//   - identity, position and grid-cell queries (the "GPS"),
//   - radio send plus frame delivery to the protocol,
//   - sleep/wake state transitions wired to the channel and the RAS,
//   - exact cell-change callbacks while awake,
//   - battery-death detection and teardown.
package node

import (
	"fmt"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/mobility"
	"ecgrid/internal/radio"
	"ecgrid/internal/ras"
	"ecgrid/internal/sim"
)

// WakeCause says why a sleeping host returned to active mode.
type WakeCause int

const (
	// WakeSelf: the host's own dwell/wake timer expired.
	WakeSelf WakeCause = iota
	// WakePage: the gateway paged this host's paging sequence.
	WakePage
	// WakeGridPage: the grid's broadcast sequence was paged (election).
	WakeGridPage
)

// String names the wake cause.
func (w WakeCause) String() string {
	switch w {
	case WakeSelf:
		return "self-timer"
	case WakePage:
		return "paged"
	case WakeGridPage:
		return "grid-paged"
	default:
		return fmt.Sprintf("WakeCause(%d)", int(w))
	}
}

// Protocol is the behaviour a Host runs. All methods are invoked from
// simulation events; implementations must not retain frames past the
// call (payloads may be shared).
type Protocol interface {
	// Start runs once when the simulation begins, after the host is
	// attached to the channel.
	Start()
	// Receive handles a successfully received frame.
	Receive(f *radio.Frame)
	// Woken is called after a sleeping host returns to active mode,
	// with the cause. The host is already listening when this runs.
	Woken(cause WakeCause)
	// CellChanged is called when an awake host crosses a grid boundary.
	// Sleeping hosts do not get this callback; they discover movement
	// when they wake, as the paper prescribes.
	CellChanged(old, cur grid.Coord)
	// Stopped is called once when the host dies (battery exhausted).
	Stopped()
	// TxFailed is called when a unicast frame the host sent exhausted
	// its MAC retries (link-layer failure feedback for route repair).
	TxFailed(f *radio.Frame)
}

// Host is one mobile host.
type Host struct {
	id        hostid.ID
	engine    *sim.Engine
	rng       *sim.RNG
	channel   *radio.Channel
	bus       *ras.Bus
	partition *grid.Partition
	mob       mobility.Model
	battery   *energy.Battery
	protocol  Protocol

	asleep  bool
	dead    bool
	crashed bool

	// gpsNoise, when non-nil, perturbs the position the host's GPS
	// reports (fault injection). The radio keeps using the true position.
	gpsNoise func(t float64) (dx, dy float64)

	// Cell memo: the noise-free Cell() answer, valid while the engine's
	// clock is below cellUntil. vmax is the mobility model's speed bound,
	// so a host cannot leave its cell before covering the margin CellOf
	// left it (see Cell).
	vmax      float64
	cell      grid.Coord
	cellUntil float64

	cellEv   sim.Handle // pending cell-change event
	deathEv  sim.Handle // pending death-check event
	lastCell grid.Coord

	// cellFn/deathFn are the timer callbacks bound once at construction;
	// re-arming them reuses the queued event (or a pooled one) without
	// allocating a closure per cycle.
	cellFn  func()
	deathFn func()

	// Position memo: mobility is a pure function of time, and the radio
	// path asks for the same host's position many times within one event
	// (receiver scan, carrier sense, GPS reads), so the leg lookup and
	// interpolation run once per (host, event time).
	posAt  float64
	posPt  geom.Point
	posSet bool

	// Died, if set, is called once when the battery empties.
	Died func(id hostid.ID, at float64)

	// SleepLog counts sleep transitions, for diagnostics.
	Sleeps, Wakes uint64
}

// Config collects the dependencies of a Host.
type Config struct {
	ID        hostid.ID
	Engine    *sim.Engine
	RNG       *sim.RNG
	Channel   *radio.Channel
	Bus       *ras.Bus
	Partition *grid.Partition
	Mobility  mobility.Model
	Battery   *energy.Battery
}

// New creates a host and attaches it to the channel and the paging bus.
// The protocol is set separately (SetProtocol) because protocols need the
// host reference at construction. Engine, Channel, Bus, Partition,
// Mobility and Battery are required: New panics without one.
func New(cfg Config) *Host {
	if cfg.Engine == nil || cfg.Channel == nil || cfg.Bus == nil || cfg.Partition == nil || cfg.Mobility == nil || cfg.Battery == nil {
		panic("node: incomplete config")
	}
	h := &Host{
		id:        cfg.ID,
		engine:    cfg.Engine,
		rng:       cfg.RNG,
		channel:   cfg.Channel,
		bus:       cfg.Bus,
		partition: cfg.Partition,
		mob:       cfg.Mobility,
		battery:   cfg.Battery,
		vmax:      cfg.Mobility.MaxSpeedMS(),
	}
	h.cellFn = h.cellChanged
	h.deathFn = h.checkDeath
	h.lastCell = h.Cell()
	h.channel.Attach(h)
	h.attachSwitch()
	return h
}

// attachSwitch registers the host's RAS switch on the paging bus. Used
// at construction and again when recovering from an injected crash.
func (h *Host) attachSwitch() {
	h.bus.Attach(h.id, &ras.Switch{
		Position: h.Position,
		Asleep:   func() bool { return h.asleep && !h.dead && !h.crashed },
		Wake: func(reason ras.WakeReason) {
			switch reason {
			case ras.PagedDirectly:
				h.wake(WakePage)
			case ras.PagedGrid:
				h.wake(WakeGridPage)
			}
		},
	})
}

// SetProtocol attaches the protocol. Must be called before Start.
func (h *Host) SetProtocol(p Protocol) { h.protocol = p }

// Start begins the host's life: death monitoring, cell-change tracking,
// and the protocol.
func (h *Host) Start() {
	if h.protocol == nil {
		panic("node: Start without protocol")
	}
	h.scheduleDeathCheck()
	h.scheduleCellChange()
	h.protocol.Start()
}

// --- identity and sensors -----------------------------------------------

// ID returns the host identifier.
func (h *Host) ID() hostid.ID { return h.id }

// Now returns the current simulation time.
func (h *Host) Now() float64 { return h.engine.Now() }

// Engine exposes the event engine for protocol timers.
func (h *Host) Engine() *sim.Engine { return h.engine }

// RNG exposes the simulation's random streams (for protocol jitter).
func (h *Host) RNG() *sim.RNG { return h.rng }

// Partition returns the grid partition.
func (h *Host) Partition() *grid.Partition { return h.partition }

// Position returns the host's true current location, memoized per event
// time. The radio channel and the RAS bus range checks use it.
func (h *Host) Position() geom.Point {
	now := h.engine.Now()
	if !h.posSet || h.posAt != now {
		h.posPt = h.mob.Position(now)
		h.posAt = now
		h.posSet = true
	}
	return h.posPt
}

// NextExit implements radio.Endpoint for the channel's spatial index:
// the earliest time ≥ t the host's position may leave bounds, bounded by
// a one-hour re-check horizon.
func (h *Host) NextExit(t float64, bounds geom.Rect) float64 {
	const horizon = 3600.0
	return mobility.NextRectExit(h.mob, t, bounds, t+horizon)
}

// MaxSpeedMS implements radio.Endpoint: its mobility model's bound on
// the host's speed for the whole run.
func (h *Host) MaxSpeedMS() float64 { return h.vmax }

// GPS returns the position the host's positioning device reports: the
// true position plus any injected noise. Everything the protocol derives
// from geography — grid membership, distance to the cell center — reads
// the GPS, so a GPS-error fault degrades routing decisions without
// bending physics.
func (h *Host) GPS() geom.Point {
	p := h.Position()
	if h.gpsNoise != nil {
		dx, dy := h.gpsNoise(h.engine.Now())
		p.X += dx
		p.Y += dy
	}
	return p
}

// SetGPSNoise installs (or, with nil, removes) a position-noise function
// applied to every GPS reading (fault injection).
func (h *Host) SetGPSNoise(fn func(t float64) (dx, dy float64)) { h.gpsNoise = fn }

// cellGuard (meters) pads the Cell memo's margin against rounding in
// leg interpolation and in the margin itself, as the radio's snapshot
// guard does (DESIGN §16).
const cellGuard = 1e-3

// Cell returns the grid cell the host believes it is in (GPS reading;
// out-of-area readings clamp to the nearest cell).
//
// Without GPS noise the answer is CellOf(Position()), and a host moving
// at most vmax cannot leave its cell before it has covered the distance
// to the nearest side it can leave through. So each computed answer is
// kept until now + (margin − cellGuard)/vmax, and a call before then
// reads no position. A NaN or past deadline (a point on a cell line, an
// unbounded or zero speed with no margin) keeps no memo. With noise
// installed the reading is not a function of the true position alone,
// so Cell computes it and leaves the memo alone.
func (h *Host) Cell() grid.Coord {
	if h.gpsNoise != nil {
		return h.partition.CellOf(h.GPS())
	}
	now := h.engine.Now()
	if now < h.cellUntil {
		return h.cell
	}
	c, margin := h.partition.CellMargin(h.Position())
	h.cell = c
	h.cellUntil = now + (margin-cellGuard)/h.vmax
	return c
}

// DistToCellCenter returns the distance from the host's reported
// position to the physical center of its current cell (the HELLO "dist"
// field).
func (h *Host) DistToCellCenter() float64 {
	return h.GPS().Dist(h.partition.Center(h.Cell()))
}

// Battery returns the host battery.
func (h *Host) Battery() *energy.Battery { return h.battery }

// Level returns the current battery level band.
func (h *Host) Level() energy.Level { return h.battery.Level(h.engine.Now()) }

// EstimateDwell returns the paper's GPS dwell estimate: the expected time
// the host remains in its current cell, capped at maxDwell.
func (h *Host) EstimateDwell(maxDwell float64) float64 {
	return mobility.EstimateDwell(h.mob, h.engine.Now(), h.partition, maxDwell)
}

// Dead reports whether the host's battery is exhausted.
func (h *Host) Dead() bool { return h.dead }

// Crashed reports whether the host is powered off by an injected crash
// fault (recoverable, unlike battery death).
func (h *Host) Crashed() bool { return h.crashed }

// Asleep reports whether the host is in sleep mode.
func (h *Host) Asleep() bool { return h.asleep }

// --- radio ---------------------------------------------------------------

// Send transmits a frame. The host must be awake and alive.
func (h *Host) Send(f *radio.Frame) {
	if h.dead || h.crashed {
		return
	}
	if h.asleep {
		panic(fmt.Sprintf("node: %v sent %v while asleep", h.id, f))
	}
	h.channel.Send(h.id, f)
}

// SendFrame builds a frame from the channel's pool and transmits it —
// the allocation-free equivalent of Send(&radio.Frame{...}). The channel
// reclaims the frame struct when it is done with the air; the payload is
// untouched and may be shared or retained by receivers.
func (h *Host) SendFrame(kind string, dst hostid.ID, bytes int, payload any) {
	if h.dead || h.crashed {
		return
	}
	if h.asleep {
		panic(fmt.Sprintf("node: %v sent %s while asleep", h.id, kind))
	}
	h.channel.Send(h.id, h.channel.NewFrame(kind, h.id, dst, bytes, payload))
}

// Deliver implements radio.Endpoint: frames go to the protocol.
func (h *Host) Deliver(f *radio.Frame) {
	if h.dead || h.crashed {
		return
	}
	h.protocol.Receive(f)
}

// TxFailed implements radio.Endpoint by forwarding to the protocol.
func (h *Host) TxFailed(f *radio.Frame) {
	if h.dead || h.crashed {
		return
	}
	h.protocol.TxFailed(f)
}

// --- RAS paging ----------------------------------------------------------

// Page sends the paging sequence of target from this host's position.
func (h *Host) Page(target hostid.ID) {
	if h.dead || h.crashed {
		return
	}
	h.bus.Page(h.Position(), target)
}

// PageGrid sends the broadcast sequence of cell c from this host's
// position.
func (h *Host) PageGrid(c grid.Coord) {
	if h.dead || h.crashed {
		return
	}
	h.bus.PageGrid(h.Position(), c)
}

// --- sleep and wake -------------------------------------------------------

// Sleep turns the transceiver off. The protocol remains responsible for
// scheduling its own wake timer. Sleeping while dead or already asleep is
// a no-op.
func (h *Host) Sleep() {
	if h.dead || h.crashed || h.asleep {
		return
	}
	h.asleep = true
	h.Sleeps++
	h.channel.SetListening(h.id, false)
	h.cancelCellChange()
	h.scheduleDeathCheck()
}

// WakeByTimer returns the host to active mode from its own timer. It is
// what protocol wake timers call. No-op if already awake or dead.
func (h *Host) WakeByTimer() { h.wake(WakeSelf) }

func (h *Host) wake(cause WakeCause) {
	if h.dead || h.crashed || !h.asleep {
		return
	}
	h.asleep = false
	h.Wakes++
	h.channel.SetListening(h.id, true)
	h.lastCell = h.Cell()
	h.scheduleCellChange()
	h.scheduleDeathCheck()
	h.protocol.Woken(cause)
}

// --- cell-change tracking --------------------------------------------------

func (h *Host) cancelCellChange() {
	h.engine.Cancel(h.cellEv)
	h.cellEv = sim.Handle{}
}

func (h *Host) scheduleCellChange() {
	if h.dead || h.asleep {
		h.cancelCellChange()
		return
	}
	const horizon = 3600.0
	next := mobility.NextCellChange(h.mob, h.engine.Now(), h.partition, h.engine.Now()+horizon)
	var delay float64
	if next > h.engine.Now()+horizon { // +Inf: re-arm at the horizon
		delay = horizon
	} else {
		delay = next - h.engine.Now()
	}
	if h.engine.Reschedule(h.cellEv, delay) {
		return
	}
	h.cellEv = h.engine.Schedule(delay, h.cellFn)
}

func (h *Host) cellChanged() {
	h.cellEv = sim.Handle{}
	if h.dead || h.asleep {
		return
	}
	old := h.lastCell
	cur := h.Cell()
	h.lastCell = cur
	h.scheduleCellChange()
	if cur != old {
		h.protocol.CellChanged(old, cur)
	}
}

// --- death -----------------------------------------------------------------

// deathCheckPeriod bounds how stale a death prediction can be: the host
// re-predicts at least this often, so death is detected within one
// period even if the radio got busier than predicted.
const deathCheckPeriod = 1.0

func (h *Host) scheduleDeathCheck() {
	if h.dead || h.battery.IsInfinite() {
		return
	}
	now := h.engine.Now()
	eta := h.battery.TimeToEmpty(now, h.battery.Mode())
	delay := eta
	if delay > deathCheckPeriod {
		delay = deathCheckPeriod
	}
	if delay < 1e-9 {
		delay = 1e-9
	}
	if h.engine.Reschedule(h.deathEv, delay) {
		return
	}
	h.deathEv = h.engine.Schedule(delay, h.deathFn)
}

func (h *Host) checkDeath() {
	h.deathEv = sim.Handle{}
	if h.dead {
		return
	}
	if !h.battery.Dead(h.engine.Now()) {
		h.scheduleDeathCheck()
		return
	}
	h.die()
}

func (h *Host) die() {
	h.dead = true
	h.cancelCellChange()
	h.channel.Detach(h.id)
	h.bus.Detach(h.id)
	h.protocol.Stopped()
	if h.Died != nil {
		h.Died(h.id, h.engine.Now())
	}
}

// --- fault injection --------------------------------------------------------

// Crash powers the host off abruptly (fault injection): it detaches from
// the channel and the paging bus, drops in-flight receptions, and stops
// the protocol, exactly like battery death — except the host can come
// back via Recover. While crashed the battery drains at the sleep rate
// (the transceiver is off). Crashing a dead or already-crashed host is a
// no-op.
func (h *Host) Crash() {
	if h.dead || h.crashed {
		return
	}
	h.crashed = true
	h.asleep = false
	h.cancelCellChange()
	h.engine.Cancel(h.deathEv)
	h.deathEv = sim.Handle{}
	h.channel.Detach(h.id)
	h.bus.Detach(h.id)
	h.battery.SetMode(h.engine.Now(), energy.Sleep)
	h.protocol.Stopped()
}

// Recover brings a crashed host back: it re-attaches to the channel and
// the paging bus and starts the protocol from scratch — all volatile
// protocol state was lost in the crash, so the caller must install a
// fresh protocol instance (SetProtocol) before calling Recover. A host
// whose battery died while crashed stays down.
func (h *Host) Recover() {
	if h.dead || !h.crashed {
		return
	}
	if h.battery.Dead(h.engine.Now()) {
		h.crashed = false
		h.die()
		return
	}
	h.crashed = false
	h.asleep = false
	h.battery.SetMode(h.engine.Now(), energy.Idle)
	h.channel.Attach(h)
	h.attachSwitch()
	h.lastCell = h.Cell()
	h.scheduleDeathCheck()
	h.scheduleCellChange()
	h.protocol.Start()
}

// DrainBattery removes the given fraction of the battery's full capacity
// instantly (fault injection: battery shock). Draining to zero triggers
// the normal death path at the next death check.
func (h *Host) DrainBattery(fraction float64) {
	if h.dead || h.battery.IsInfinite() {
		return
	}
	h.battery.Drain(h.engine.Now(), fraction*h.battery.Full())
	if h.crashed {
		return // death check resumes on recovery
	}
	h.scheduleDeathCheck()
}
