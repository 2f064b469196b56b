// Package gaf implements the GAF baseline (Xu, Heidemann & Estrin,
// MobiCom'01) the paper compares against: Geographic Adaptive Fidelity.
//
// GAF partitions the plane into the same logical grid and treats hosts in
// one cell as routing-equivalent. Each host cycles through three states:
//
//	discovery — transceiver on, exchanging discovery messages to find
//	            the cell's active node;
//	active    — the cell's designated forwarder for a period Ta;
//	sleeping  — transceiver off for a period Ts, then back to discovery.
//
// Unlike ECGRID there is no paging: sleeping hosts wake only when their
// own timers expire. Packets addressed to a sleeping host are simply
// lost, which is why the paper's Model 1 gives GAF ten infinite-energy
// endpoint hosts that never sleep (and do not forward): sources and
// destinations are always reachable, and only the 100 energy-limited
// forwarders run GAF.
//
// Routing is host-by-host AODV, as in the GAF paper's evaluation.
package gaf

import (
	"fmt"
	"math"

	"ecgrid/internal/energy"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/node"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// state is the GAF node state machine.
type state int

const (
	stateDiscovery state = iota
	stateActive
	stateSleeping
)

func (s state) String() string {
	switch s {
	case stateDiscovery:
		return "discovery"
	case stateActive:
		return "active"
	case stateSleeping:
		return "sleeping"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Options are GAF's tunables.
type Options struct {
	// Td is the discovery window: a node broadcasts its discovery
	// message at a random point within it and leaves discovery at its
	// end.
	Td float64
	// TaFrac scales the active period: Ta = TaFrac × enat, where enat
	// is the node's expected active lifetime (GAF uses enat/2).
	TaFrac float64
	// TaMax caps the active period so rotation happens at least this
	// often.
	TaMax float64
	// TsMax caps the sleep period; the dwell estimate (GAF-ma) bounds
	// it further.
	TsMax float64
	routing.AODVOptions
}

// DefaultOptions returns the configuration used in the evaluation.
func DefaultOptions() Options {
	return Options{
		Td:     1.0,
		TaFrac: 0.5,
		TaMax:  60,
		TsMax:  60,
		AODVOptions: routing.AODVOptions{
			RouteTTL:         30,
			DupTTL:           30,
			BufferPerDest:    32,
			DiscoveryTimeout: 0.5,
			DiscoveryRetries: 2,
		},
	}
}

// Validate reports configuration mistakes.
func (o Options) Validate() error {
	switch {
	case o.Td <= 0:
		return fmt.Errorf("gaf: Td %v must be positive", o.Td)
	case o.TaFrac <= 0 || o.TaFrac > 1:
		return fmt.Errorf("gaf: TaFrac %v must be in (0, 1]", o.TaFrac)
	case o.TaMax <= 0 || o.TsMax <= 0:
		return fmt.Errorf("gaf: TaMax/TsMax (%v, %v) must be positive", o.TaMax, o.TsMax)
	}
	return o.AODVOptions.Validate()
}

// Stats counts protocol events on one host.
type Stats struct {
	DiscoveriesSent uint64
	routing.AODVStats
	SleepsEntered uint64
	ActivePeriods uint64
}

// Protocol is one host's GAF + AODV instance. Endpoints never relay
// floods, so routes avoid them; everyone else relays.
type Protocol struct {
	*routing.HostAODV
	host *node.Host
	opt  Options

	// Endpoint marks the paper's Model 1 infinite-energy hosts: they
	// never sleep, never relay data, and never forward floods.
	endpoint bool
	// alwaysOn disables the GAF state machine entirely (plain AODV):
	// the host never sleeps but still relays.
	alwaysOn bool

	st         state
	stateTimer *sim.Timer
	annTimer   *sim.Timer // discovery-message broadcast within Td
	wakeFn     func()     // host.WakeByTimer, bound once for every sleep
	yielded    bool       // heard a higher-ranked grid-mate this round

	stopped bool
	Stats   Stats
}

// NewAODV creates a plain AODV instance: the same host-by-host routing
// this package runs under GAF, but with the fidelity state machine off —
// the host never sleeps and always relays. It is the always-on baseline
// GRID descends from ("GRID ... is modified from AODV protocol", §3.3)
// and isolates what grid-based routing adds or costs.
func NewAODV(h *node.Host, opt Options) *Protocol {
	p := New(h, opt, false)
	p.alwaysOn = true
	return p
}

// New creates a GAF instance. endpoint marks Model 1 always-on hosts.
func New(h *node.Host, opt Options, endpoint bool) *Protocol {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	p := &Protocol{host: h, opt: opt, endpoint: endpoint}
	// Only endpoints and plain-AODV hosts originate, and they never
	// sleep, so a discovery timer never fires while its host sleeps.
	p.HostAODV = routing.NewHostAODV(h, opt.AODVOptions, p, &p.Stats.AODVStats, opt.DiscoveryTimeout)
	p.stateTimer = sim.NewTimer(h.Engine(), p.stateExpired)
	p.annTimer = sim.NewTimer(h.Engine(), p.announce)
	p.wakeFn = h.WakeByTimer
	return p
}

// State returns the GAF state name, for tests.
func (p *Protocol) State() string {
	if p.endpoint {
		return "endpoint"
	}
	if p.alwaysOn {
		return "aodv"
	}
	return p.st.String()
}

// enat is the expected node active time: how long the battery would last
// at idle draw.
func (p *Protocol) enat() float64 {
	return p.host.Battery().TimeToEmpty(p.host.Now(), energy.Idle)
}

// enatBucket quantizes expected lifetimes for ranking. Comparisons mix a
// peer's announcement-time snapshot with our current value, which has
// drained a little since — without coarsening, every host would see every
// peer as longer-lived and the whole grid would sleep.
const enatBucket = 10.0

// rank orders grid-mates: active beats discovery, then longer expected
// lifetime (in coarse buckets), then smaller ID. Returns true if
// (aState, aEnat, aID) wins against (bState, bEnat, bID).
func rank(aState state, aEnat float64, aID hostid.ID, bState state, bEnat float64, bID hostid.ID) bool {
	if (aState == stateActive) != (bState == stateActive) {
		return aState == stateActive
	}
	qa, qb := math.Floor(aEnat/enatBucket), math.Floor(bEnat/enatBucket)
	if qa != qb {
		return qa > qb
	}
	return aID < bID
}

// --- node.Protocol ----------------------------------------------------------

// Start enters discovery (forwarders) or permanent activity (endpoints
// and plain-AODV hosts).
func (p *Protocol) Start() {
	if p.endpoint || p.alwaysOn {
		return // always listening; no GAF cycling
	}
	p.enterDiscovery()
}

// Stopped cancels all timers on death.
func (p *Protocol) Stopped() {
	p.stopped = true
	p.stateTimer.Stop()
	p.annTimer.Stop()
	p.HostAODV.Stop()
}

// Woken resumes the cycle after a sleep period.
func (p *Protocol) Woken(cause node.WakeCause) {
	if p.stopped || p.endpoint || p.alwaysOn {
		return
	}
	p.enterDiscovery()
}

// CellChanged restarts discovery in the new cell: grid-equivalence only
// holds within one cell.
func (p *Protocol) CellChanged(old, cur grid.Coord) {
	if p.stopped || p.endpoint || p.alwaysOn {
		return
	}
	if p.st == stateActive {
		// Tell the old cell's neighbors we are gone so routes purge.
		p.broadcastDiscovery(stateSleeping)
	}
	p.enterDiscovery()
}

// Receive dispatches frames.
func (p *Protocol) Receive(f *radio.Frame) {
	if p.stopped {
		return
	}
	if m, ok := f.Payload.(*routing.Discovery); ok {
		p.handleDiscovery(m)
		return
	}
	if !p.HostAODV.Receive(f) {
		panic(fmt.Sprintf("gaf: unknown payload %T", f.Payload))
	}
}

// --- routing.RelayPolicy ------------------------------------------------------

// RelaysFloods reports whether the host relays route requests: every
// host but a Model 1 endpoint.
func (p *Protocol) RelaysFloods() bool { return !p.endpoint }

// AnswersFor is false: a GAF host replies only for itself.
func (p *Protocol) AnswersFor(hostid.ID) bool { return false }

// HoldsForWake is false: GAF sends to a destination at once.
func (p *Protocol) HoldsForWake(hostid.ID) bool { return false }

// LinkFailed re-discovers the host's own packet; a transit packet takes
// an alternate route or is dropped with a RERR to its source.
func (p *Protocol) LinkFailed(pkt *routing.DataPacket, hop hostid.ID) {
	if pkt.Src == p.host.ID() {
		p.Rediscover(pkt)
		return
	}
	if !p.Forward(pkt) {
		p.DropAndReport(pkt)
	}
}

// --- GAF state machine -------------------------------------------------------

func (p *Protocol) enterDiscovery() {
	p.st = stateDiscovery
	p.yielded = false
	// Announce at a random point within the discovery window.
	p.annTimer.Reset(p.host.RNG().Uniform(sim.StreamGAFAnnounce, 0, p.opt.Td))
	p.stateTimer.Reset(p.opt.Td)
}

// announce broadcasts this node's discovery message.
func (p *Protocol) announce() {
	if p.stopped || p.host.Asleep() {
		return
	}
	p.broadcastDiscovery(p.st)
}

func (p *Protocol) broadcastDiscovery(st state) {
	p.Stats.DiscoveriesSent++
	p.host.SendFrame("gaf-disc", hostid.Broadcast,
		routing.DiscoveryByte+radio.MACHeaderBytes, &routing.Discovery{
			ID:    p.host.ID(),
			Grid:  p.host.Cell(),
			State: int(st),
			Enat:  p.enat(),
		})
}

// stateExpired advances the state machine.
func (p *Protocol) stateExpired() {
	if p.stopped || p.host.Asleep() {
		return
	}
	switch p.st {
	case stateDiscovery:
		if p.yielded {
			p.goToSleep()
			return
		}
		p.becomeActive()
	case stateActive:
		// Hand the cell over: re-enter discovery so longer-lived
		// peers can take the duty.
		p.broadcastDiscovery(stateSleeping) // purge routes via us
		p.enterDiscovery()
	}
}

func (p *Protocol) becomeActive() {
	p.st = stateActive
	p.Stats.ActivePeriods++
	ta := p.opt.TaFrac * p.enat()
	if ta > p.opt.TaMax {
		ta = p.opt.TaMax
	}
	if ta < p.opt.Td {
		ta = p.opt.Td
	}
	p.stateTimer.Reset(ta)
	p.broadcastDiscovery(stateActive)
}

func (p *Protocol) goToSleep() {
	if p.endpoint || p.host.Asleep() || p.st == stateSleeping {
		return
	}
	ts := p.opt.TsMax
	// GAF-ma: do not sleep past the expected grid dwell, so movement is
	// noticed.
	if dwell := p.host.EstimateDwell(p.opt.TsMax); dwell < ts {
		ts = dwell
	}
	if ts <= 0 {
		ts = p.opt.Td
	}
	p.st = stateSleeping
	p.stateTimer.Stop()
	p.annTimer.Stop()
	p.Stats.SleepsEntered++
	// Give any queued frame (the step-down announcement) a moment to go
	// on air before the transceiver switches off.
	p.host.Engine().Schedule(sleepGrace, func() {
		if p.stopped || p.st != stateSleeping || p.host.Asleep() {
			return
		}
		p.host.Engine().Schedule(ts, p.wakeFn)
		p.host.Sleep()
	})
}

// sleepGrace is the delay between the last transmission request and the
// transceiver switching off.
const sleepGrace = 0.01

// handleDiscovery applies the ranking rule to same-cell peers.
func (p *Protocol) handleDiscovery(m *routing.Discovery) {
	if m.State == int(stateSleeping) {
		// A peer is stepping down: purge routes through it.
		p.Table.RemoveVia(m.ID)
		return
	}
	if p.endpoint || p.host.Asleep() {
		return
	}
	if m.Grid != p.host.Cell() {
		return
	}
	if p.st == stateSleeping {
		return
	}
	theirs := state(m.State)
	if rank(theirs, m.Enat, m.ID, p.st, p.enat(), p.host.ID()) {
		// They outrank us.
		switch p.st {
		case stateDiscovery:
			p.yielded = true
			if theirs == stateActive {
				// The cell has its active node: sleep immediately.
				p.goToSleep()
			}
		case stateActive:
			// Duplicate active nodes after mobility: the loser steps
			// down.
			p.broadcastDiscovery(stateSleeping)
			p.goToSleep()
		}
	}
}
