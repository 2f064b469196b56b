package core

import (
	"fmt"

	"ecgrid/internal/energy"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/node"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// role is the host's current protocol role. Sleep state lives in the
// node layer (host.Asleep()); a sleeping host keeps roleMember.
type role int

const (
	roleMember role = iota
	roleGateway
)

func (r role) String() string {
	if r == roleGateway {
		return "gateway"
	}
	return "member"
}

// helloInfo is what a host remembers about a neighbor's last HELLO, the
// raw material of the gateway election rules.
type helloInfo struct {
	id    hostid.ID
	level energy.Level
	dist  float64
	gflag bool
	at    float64
}

// neighborGW caches the gateway identity of a nearby grid, learned from
// overheard gflag HELLOs; used to unicast grid-addressed messages.
type neighborGW struct {
	cell grid.Coord
	id   hostid.ID
	seen float64
}

// Protocol is the per-host ECGRID instance. Construct with New, attach
// via host.SetProtocol, then start the host.
type Protocol struct {
	host *node.Host
	opt  Options

	role role

	// OnDeliver, if set, receives every data packet that reaches this
	// host as its final destination.
	OnDeliver func(pkt *routing.DataPacket)

	// OnGateway, if set, is called whenever this host declares itself
	// gateway of a grid (recovery metrics: re-election latency).
	OnGateway func(g grid.Coord, at float64)

	// --- shared state (any role) ---
	myGrid      grid.Coord // grid this host currently operates in
	gatewayID   hostid.ID  // believed gateway of myGrid
	lastGWHello float64
	heard       map[hostid.ID]*helloInfo
	helloTicker *sim.Ticker
	seqNo       uint32
	bcastID     uint32

	// --- election ---
	electing      bool
	electionTimer *sim.Timer
	inheritRoutes []routing.Entry
	inheritHosts  []routing.HostEntry
	gwWaitTimer   *sim.Timer // waiting for a gateway HELLO after grid entry / wake

	// --- gateway state ---
	hosts      *routing.HostTable
	table      *routing.Table
	buffer     *routing.Buffer
	dup        *routing.DupCache
	neighbors  []neighborGW // sorted by cell (X, Y); see neighborGWAt
	gwLevelAt  energy.Level // battery band when elected (load balance)
	discovery  map[hostid.ID]*discoveryState
	holds      map[hostid.ID]int // per-destination handover hold retries
	pendingReq map[hostid.ID]pendingRREQ
	lastPage   map[hostid.ID]float64 // rate limit for search pages
	helloReply float64               // last time we sent an unscheduled HELLO reply

	// --- member state ---
	sleepTimer *sim.Timer // dwell wake timer
	idleTimer  *sim.Timer // sleep after inactivity
	sleepToken int        // invalidates a sleep pending its grace period
	sleptCell  grid.Coord // cell the host was in when it went to sleep
	pendingOut []*routing.DataPacket
	acqTimer   *sim.Timer
	acqTries   int

	stopped bool

	Stats Stats
}

// New creates an ECGRID (or, with GridOptions, GRID) instance for host h.
func New(h *node.Host, opt Options) *Protocol {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	p := &Protocol{
		host:       h,
		opt:        opt,
		gatewayID:  hostid.None,
		heard:      make(map[hostid.ID]*helloInfo),
		hosts:      routing.NewHostTableTTL(opt.MemberActiveTTL, opt.MemberSleepTTL),
		table:      routing.NewTable(opt.RouteTTL),
		buffer:     routing.NewBuffer(opt.BufferPerDest),
		dup:        routing.NewDupCache(opt.DupTTL),
		discovery:  make(map[hostid.ID]*discoveryState),
		holds:      make(map[hostid.ID]int),
		pendingReq: make(map[hostid.ID]pendingRREQ),
		lastPage:   make(map[hostid.ID]float64),
	}
	p.electionTimer = sim.NewTimer(h.Engine(), p.finishElection)
	p.gwWaitTimer = sim.NewTimer(h.Engine(), p.gwWaitExpired)
	p.sleepTimer = sim.NewTimer(h.Engine(), p.dwellExpired)
	p.idleTimer = sim.NewTimer(h.Engine(), p.idleExpired)
	p.acqTimer = sim.NewTimer(h.Engine(), p.acqExpired)
	return p
}

// Role returns the current role, for tests and diagnostics.
func (p *Protocol) Role() string {
	if p.host.Asleep() {
		return "sleeping"
	}
	return p.role.String()
}

// IsGateway reports whether this host currently serves as gateway.
func (p *Protocol) IsGateway() bool { return p.role == roleGateway }

// GatewayID returns the believed gateway of the host's grid.
func (p *Protocol) GatewayID() hostid.ID { return p.gatewayID }

// Grid returns the grid this host currently operates in.
func (p *Protocol) Grid() grid.Coord { return p.myGrid }

// Table exposes the routing table for tests.
func (p *Protocol) Table() *routing.Table { return p.table }

// KnowsMember reports whether this host, as gateway, has a live host-table
// row for id (test and tooling hook).
func (p *Protocol) KnowsMember(id hostid.ID) bool {
	_, ok := p.hosts.Fresh(id, p.host.Now())
	return ok
}

// --- node.Protocol implementation -----------------------------------------

// Start begins protocol operation: the initial HELLO exchange and
// election of §3.1.
func (p *Protocol) Start() {
	p.myGrid = p.host.Cell()
	// Every active host broadcasts HELLO periodically; the phase is
	// jittered per host.
	phase := p.host.RNG().Uniform(sim.StreamHelloPhase, 0, p.opt.HelloPeriod*p.opt.HelloJitterFrac)
	p.helloTicker = sim.NewTicker(p.host.Engine(), p.opt.HelloPeriod, phase, p.helloTick)
	// Initial state: all hosts active, exchange HELLOs, elect after one
	// HELLO period (§3.1 step 2). The first HELLO is jittered so the
	// whole network does not key up in the same slot.
	p.sendHelloJittered(p.opt.HelloPeriod * p.opt.HelloJitterFrac)
	p.startElection()
}

// Stopped handles battery death: cancel all timers.
func (p *Protocol) Stopped() {
	p.stopped = true
	if p.helloTicker != nil {
		p.helloTicker.Stop()
	}
	for _, t := range []*sim.Timer{p.electionTimer, p.gwWaitTimer, p.sleepTimer, p.idleTimer, p.acqTimer} {
		t.Stop()
	}
	for _, d := range p.discovery { //simlint:ordered stops every timer; order-insensitive
		d.timer.Stop()
	}
}

// Receive dispatches an incoming frame by payload type.
func (p *Protocol) Receive(f *radio.Frame) {
	if p.stopped {
		return
	}
	switch m := f.Payload.(type) {
	case *routing.Hello:
		p.handleHello(m)
	case *routing.RREQ:
		p.handleRREQ(m)
	case *routing.RREP:
		p.handleRREP(m)
	case *routing.RERR:
		p.handleRERR(m)
	case *routing.Retire:
		p.handleRetire(m)
	case *routing.Transfer:
		p.handleTransfer(m)
	case *routing.ACQ:
		p.handleACQ(m, f.Src)
	case *routing.Leave:
		p.handleLeave(m)
	case *routing.Data:
		p.handleData(m)
	default:
		panic(fmt.Sprintf("core: unknown payload %T", f.Payload))
	}
}

// Woken runs when the host returns to active mode.
func (p *Protocol) Woken(cause node.WakeCause) {
	if p.stopped {
		return
	}
	p.sleepTimer.Stop()
	cur := p.host.Cell()
	moved := cur != p.sleptCell

	if moved {
		// §3.2: the host is leaving (has left) its sleep-time grid.
		// Notify the old gateway and find footing in the new grid.
		p.sendLeave(p.sleptCell)
		p.enterGrid(cur)
		p.touchActivity()
		return
	}

	switch cause {
	case node.WakeSelf:
		if len(p.pendingOut) > 0 {
			// Woke up to transmit: run the ACQ handshake (§3.3).
			p.startACQ()
			return
		}
		// Still in the same grid with nothing to send: announce we are
		// (briefly) awake and wait for the gateway's HELLO before
		// sleeping again. The paper's host only re-checks its
		// position, but the tiny Awake broadcast keeps a successor
		// gateway's host table complete and turns a dead-gateway grid
		// self-healing: no response is the paper's no-gateway event
		// case 2.
		p.sendAwake()
		p.acqTries = 0
		p.acqTimer.Reset(p.opt.AcqTimeout)
	case node.WakePage:
		// The gateway has traffic for us: announce we are awake so the
		// buffer flushes, then stay active for the idle window.
		p.sendAwake()
		p.touchActivity()
	case node.WakeGridPage:
		// Election imminent (a RETIRE or a no-gateway event follows).
		// Stay awake; if nothing arrives, the gateway-wait fallback
		// triggers an election.
		p.touchActivity()
		p.gwWaitTimer.Reset(p.opt.GatewayTimeout)
	}
}

// CellChanged handles an awake host crossing a grid boundary.
func (p *Protocol) CellChanged(old, cur grid.Coord) {
	if p.stopped {
		return
	}
	if p.role == roleGateway {
		// §3.2 "hosts move out of a grid", gateway case: hand over to
		// a successor in the old grid, then join the new grid.
		p.retire(old, "moved")
		p.enterGrid(cur)
		return
	}
	// Member case: unicast a departure notice, then join the new grid.
	p.sendLeave(old)
	p.enterGrid(cur)
}

// SubmitData accepts an application packet for delivery (traffic layer
// entry point).
func (p *Protocol) SubmitData(pkt *routing.DataPacket) {
	if p.stopped {
		return
	}
	if pkt.Dst == p.host.ID() {
		// Loopback: deliver immediately.
		p.deliver(pkt)
		return
	}
	if p.role == roleGateway {
		p.routeData(&routing.Data{Packet: pkt, TargetGrid: p.myGrid})
		return
	}
	p.pendingOut = append(p.pendingOut, pkt)
	if p.host.Asleep() {
		// Wake up to transmit; Woken(WakeSelf) sees pendingOut and
		// runs the ACQ handshake.
		p.host.WakeByTimer()
		return
	}
	p.touchActivity()
	if p.gatewayFresh() {
		p.drainPending()
		return
	}
	if !p.acqTimer.Active() && !p.electing {
		p.startACQ()
	}
}

// --- HELLO machinery --------------------------------------------------------

func (p *Protocol) helloTick() {
	if p.stopped || p.host.Asleep() {
		return
	}
	p.sendHello()
	if p.role == roleGateway {
		p.gatewayPeriodic()
		return
	}
	// No-gateway detection, case 1: an active member that has not heard
	// its gateway for too long (or has none at all).
	if !p.electing && !p.gwWaitTimer.Active() && !p.gatewayFresh() {
		p.noGatewayEvent("silent gateway")
	}
}

func (p *Protocol) sendHello() {
	h := &routing.Hello{
		ID:    p.host.ID(),
		Grid:  p.host.Cell(),
		GFlag: p.role == roleGateway,
		Level: int(p.host.Level()),
		Dist:  p.host.DistToCellCenter(),
	}
	p.Stats.HellosSent++
	p.host.SendFrame("hello", hostid.Broadcast, routing.HelloBytes+radio.MACHeaderBytes, h)
}

func (p *Protocol) handleHello(m *routing.Hello) {
	now := p.host.Now()
	if m.Grid != p.host.Cell() {
		// Different grid: only gateway identities matter (they let us
		// unicast grid-addressed traffic).
		if m.GFlag {
			p.noteNeighborGW(m.Grid, m.ID, now)
		}
		return
	}
	// Same grid: record for elections, updating the existing entry in
	// place — neighbors re-HELLO every period, so the steady state is an
	// overwrite, not an insert.
	if hi := p.heard[m.ID]; hi != nil {
		hi.level, hi.dist, hi.gflag, hi.at = energy.Level(m.Level), m.Dist, m.GFlag, now
	} else {
		p.heard[m.ID] = &helloInfo{id: m.ID, level: energy.Level(m.Level), dist: m.Dist, gflag: m.GFlag, at: now}
	}

	if m.GFlag {
		p.sawGatewayHello(m, now)
		return
	}

	if p.role == roleGateway {
		// §3.2: a gateway hearing a new host's HELLO re-broadcasts its
		// own so the newcomer learns who is in charge. Rate-limited so
		// HELLO exchanges cannot feed themselves.
		p.hosts.Note(m.ID, routing.HostActive, now)
		p.flushBuffer(m.ID) // the host is provably awake
		if now-p.helloReply > 0.2 {
			p.helloReply = now
			p.sendHello()
		}
	}
	// Members record the HELLO (done above) and let elections read it.
}

// sendHelloJittered broadcasts a HELLO after a uniform random delay in
// [0, maxJitter), de-synchronizing bursts triggered by a common event
// (startup, RETIRE, grid pages).
func (p *Protocol) sendHelloJittered(maxJitter float64) {
	if maxJitter <= 0 {
		p.sendHello()
		return
	}
	d := p.host.RNG().Uniform(sim.StreamHelloJitter, 0, maxJitter)
	p.host.Engine().Schedule(d, func() {
		if p.stopped || p.host.Asleep() {
			return
		}
		p.sendHello()
	})
}

// sawGatewayHello processes a gflag HELLO from this host's own grid.
func (p *Protocol) sawGatewayHello(m *routing.Hello, now float64) {
	if p.role == roleGateway && m.ID != p.host.ID() {
		// Gateway conflict (split brain after mobility or elections
		// racing). The election comparator decides who abdicates.
		if p.loses(m) {
			p.abdicateTo(m.ID)
		}
		return
	}

	p.gatewayID = m.ID
	p.lastGWHello = now
	if p.electing {
		// Someone already won: stand down.
		p.cancelElection()
	}
	p.gwWaitTimer.Stop()
	if p.acqTimer.Active() {
		// The gateway answered our ACQ/Awake: hand over pending data
		// now rather than waiting for the timeout.
		p.acqTimer.Stop()
		if len(p.pendingOut) > 0 {
			p.drainPending()
		}
	}

	// §3.2 case "hosts move into a new grid": replace the gateway only
	// with a strictly higher battery level.
	if p.opt.EnergyAwareElection && p.role == roleMember &&
		int(p.host.Level()) > m.Level && !p.host.Asleep() && p.opt.SleepEnabled {
		p.declareGateway("replacement")
		return
	}

	// §3.1 step 4: members with nothing to send may sleep.
	p.maybeSleep()
}

// loses reports whether this host loses the election comparison against
// the sender of HELLO m.
func (p *Protocol) loses(m *routing.Hello) bool {
	me := &helloInfo{id: p.host.ID(), level: p.host.Level(), dist: p.host.DistToCellCenter()}
	other := &helloInfo{id: m.ID, level: energy.Level(m.Level), dist: m.Dist}
	return p.better(other, me)
}

// --- sleep management --------------------------------------------------------

// touchActivity resets the idle countdown that eventually puts a member
// to sleep, and cancels a sleep already in its grace period.
func (p *Protocol) touchActivity() {
	if !p.opt.SleepEnabled || p.role == roleGateway || p.host.Asleep() {
		return
	}
	p.sleepToken++ // abort a pending grace-period sleep
	p.idleTimer.Reset(p.opt.IdleTimeout)
}

// maybeSleep puts a member to sleep if nothing keeps it awake and no
// recent activity suggests more traffic (the idle timer is armed instead).
// A member may only sleep under a live gateway (§3.1 step 4: members
// sleep after receiving the gateway's HELLO); without one it stays awake
// so the no-gateway machinery can run.
func (p *Protocol) maybeSleep() {
	if !p.opt.SleepEnabled || p.role == roleGateway || p.host.Asleep() ||
		p.electing || len(p.pendingOut) > 0 || p.acqTimer.Active() ||
		!p.gatewayFresh() {
		return
	}
	if p.idleTimer.Active() {
		return // recent activity: let the idle timer decide
	}
	p.goToSleep()
}

func (p *Protocol) idleExpired() {
	if p.stopped {
		return
	}
	p.maybeSleep()
}

// goToSleep announces sleep status, then — after a short grace period
// that lets the notice (and anything else queued at the MAC) actually go
// on air — sets the dwell wake timer and turns the transceiver off. Any
// activity during the grace period cancels the sleep.
func (p *Protocol) goToSleep() {
	if p.host.Asleep() || p.stopped || p.role == roleGateway {
		return
	}
	// Tell the gateway our status is now "sleep mode" so its host table
	// is accurate (§3: the host table stores transmit/sleep status).
	p.sendSleepNotice()
	p.sleepToken++
	tok := p.sleepToken
	p.host.Engine().Schedule(sleepGrace, func() {
		if p.stopped || tok != p.sleepToken || p.host.Asleep() ||
			p.role == roleGateway || p.electing ||
			len(p.pendingOut) > 0 || p.acqTimer.Active() ||
			!p.gatewayFresh() {
			return
		}
		p.sleptCell = p.host.Cell()
		dwell := p.host.EstimateDwell(p.opt.MaxDwell)
		if dwell <= 0 {
			dwell = 0.1 // on a boundary: re-check almost immediately
		}
		p.sleepTimer.Reset(dwell)
		p.Stats.SleepsEntered++
		p.host.Sleep()
	})
}

// sleepGrace is the delay between the sleep notice and the transceiver
// switching off: long enough for a queued 42-byte frame plus CSMA
// backoff, short enough to be negligible against the idle draw.
const sleepGrace = 0.01

func (p *Protocol) dwellExpired() {
	if p.stopped {
		return
	}
	// Wake to re-check position, per §3.2.
	p.host.WakeByTimer()
}

// sendSleepNotice broadcasts a tiny status update; the gateway marks us
// sleeping.
func (p *Protocol) sendSleepNotice() {
	p.host.SendFrame("sleep", hostid.Broadcast,
		routing.AwakeBytes+radio.MACHeaderBytes, &routing.ACQ{Grid: p.host.Cell(), Src: p.host.ID(), Dst: sleepMarker})
}

// sendAwake broadcasts an awake notice; the gateway marks us active and
// flushes buffered packets.
func (p *Protocol) sendAwake() {
	p.Stats.ACQsSent++
	p.host.SendFrame("awake", hostid.Broadcast,
		routing.AwakeBytes+radio.MACHeaderBytes, &routing.ACQ{Grid: p.host.Cell(), Src: p.host.ID(), Dst: hostid.None})
}

// sleepMarker distinguishes a sleep notice from an awake notice in the
// shared ACQ payload.
const sleepMarker hostid.ID = -3

// --- ACQ handshake (member with data to send) -------------------------------

func (p *Protocol) startACQ() {
	p.acqTries = 0
	p.sendACQ()
}

func (p *Protocol) sendACQ() {
	dst := hostid.None
	if len(p.pendingOut) > 0 {
		dst = p.pendingOut[0].Dst
	}
	p.Stats.ACQsSent++
	p.host.SendFrame("acq", hostid.Broadcast,
		routing.ACQBytes+radio.MACHeaderBytes, &routing.ACQ{Grid: p.host.Cell(), Src: p.host.ID(), Dst: dst})
	p.acqTimer.Reset(p.opt.AcqTimeout)
}

func (p *Protocol) acqExpired() {
	if p.stopped || p.role == roleGateway {
		return
	}
	if p.gatewayFresh() {
		p.drainPending()
		p.maybeSleep()
		return
	}
	p.acqTries++
	if p.acqTries <= p.opt.AcqRetries {
		p.sendACQ()
		return
	}
	// No-gateway event, case 2: a host woke (to transmit, or for its
	// dwell re-check) and got no response from any gateway.
	p.noGatewayEvent("acq unanswered")
}

// gatewayFresh reports whether we have heard our grid's gateway recently
// enough to trust a unicast to it.
func (p *Protocol) gatewayFresh() bool {
	return p.gatewayID != hostid.None && p.gatewayID != p.host.ID() &&
		p.host.Now()-p.lastGWHello <= p.opt.GatewayTimeout
}

// drainPending unicasts queued outbound packets to the gateway.
func (p *Protocol) drainPending() {
	if len(p.pendingOut) == 0 {
		return
	}
	if p.role == roleGateway {
		for _, pkt := range p.pendingOut {
			p.routeData(&routing.Data{Packet: pkt, TargetGrid: p.myGrid})
		}
		p.pendingOut = nil
		return
	}
	if !p.gatewayFresh() {
		return
	}
	p.acqTimer.Stop()
	for _, pkt := range p.pendingOut {
		p.host.SendFrame("data", p.gatewayID,
			pkt.Bytes+routing.DataHeader+radio.MACHeaderBytes, &routing.Data{Packet: pkt, TargetGrid: p.host.Cell()})
	}
	p.pendingOut = nil
	p.touchActivity()
}

// --- grid entry ---------------------------------------------------------------

// enterGrid is the §3.2 "hosts move into a new grid" procedure.
func (p *Protocol) enterGrid(cur grid.Coord) {
	p.role = roleMember
	p.myGrid = cur
	p.gatewayID = hostid.None
	p.cancelElection()
	p.heard = make(map[hostid.ID]*helloInfo)
	p.sendHello()
	// If no gateway HELLO arrives within a HELLO period, the grid is
	// empty: declare ourselves gateway.
	p.gwWaitTimer.Reset(p.opt.HelloPeriod)
	p.touchActivity()
}

// gwWaitExpired fires when no gateway announced itself in time.
func (p *Protocol) gwWaitExpired() {
	if p.stopped || p.role == roleGateway || p.host.Asleep() {
		return
	}
	if p.gatewayFresh() {
		return
	}
	if p.electing {
		return
	}
	// Nobody with a gflag answered our HELLO. The grid may be truly
	// empty (§3.2: declare ourselves) — or it may hold only sleeping
	// hosts whose gateway is gone. We cannot tell the difference
	// without waking them, and the paper requires all hosts awake for
	// an election anyway ("To elect a new gateway, all hosts in the
	// same grid must be in active mode"), so both cases run through
	// the no-gateway procedure: page the grid, exchange HELLOs, elect.
	// In a truly empty grid the election is a one-candidate landslide.
	p.noGatewayEvent("no gateway hello")
}

// sendLeave notifies the gateway of oldCell that we are departing, and
// where to, so it can keep forwarding our traffic (§3.4). The notice is
// broadcast rather than unicast: the old grid's gateway may have changed
// while we slept, and whoever holds the role now is the one that needs
// the stub.
func (p *Protocol) sendLeave(oldCell grid.Coord) {
	p.Stats.LeavesSent++
	p.host.SendFrame("leave", hostid.Broadcast,
		routing.LeaveBytes+radio.MACHeaderBytes, &routing.Leave{ID: p.host.ID(), Grid: oldCell, NewGrid: p.host.Cell()})
}

// handleLeave removes the departed member and installs §3.4's forwarding
// stub: traffic for the host is now one hop longer, through its new grid.
func (p *Protocol) handleLeave(m *routing.Leave) {
	if p.role != roleGateway || m.Grid != p.myGrid {
		return
	}
	p.hosts.Remove(m.ID)
	if m.NewGrid != m.Grid && p.host.Partition().Valid(m.NewGrid) && m.NewGrid != p.myGrid {
		seq := uint32(1)
		if e, ok := p.table.Lookup(m.ID, p.host.Now()); ok {
			seq = e.Seq + 1
		}
		p.table.Update(routing.Entry{
			Dst:      m.ID,
			NextGrid: m.NewGrid,
			DestGrid: m.NewGrid,
			Seq:      seq,
			Hops:     1,
		}, p.host.Now())
		// Any packets buffered for the departed host follow it.
		p.host.Engine().Schedule(0, func() {
			if !p.stopped && p.role == roleGateway && !p.host.Asleep() {
				p.flushRouted(m.ID)
			}
		})
	}
}

// deliver hands a packet that reached its final destination to the
// application layer.
func (p *Protocol) deliver(pkt *routing.DataPacket) {
	p.Stats.DataDelivered++
	p.touchActivity()
	if p.OnDeliver != nil {
		p.OnDeliver(pkt)
	}
}

// nextSeq increments and returns this host's sequence number.
func (p *Protocol) nextSeq() uint32 {
	p.seqNo++
	return p.seqNo
}

// nextBcastID increments and returns this host's RREQ broadcast id.
func (p *Protocol) nextBcastID() uint32 {
	p.bcastID++
	return p.bcastID
}
