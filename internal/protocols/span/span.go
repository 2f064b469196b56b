// Package span implements a faithful-in-spirit version of Span (Chen,
// Jamieson, Balakrishnan, Morris; MobiCom'01), the third protocol the
// paper positions ECGRID against in §1.
//
// Span elects a connected backbone of always-on coordinators using only
// topology knowledge (no GPS): a host volunteers as coordinator when two
// of its neighbors cannot reach each other directly or through an
// existing coordinator, after a randomized backoff that favours
// high-energy, high-utility hosts. Every other host runs an 802.11
// PSM-style duty cycle — awake for a beacon window each period, asleep
// the rest — because, unlike ECGRID, Span has no remote wake hardware:
// traffic for a sleeping host waits for its next scheduled window.
//
// The paper's §1 makes two comparative claims this package lets the
// repository test:
//
//   - ECGRID needs no periodic wakeups while "Span non-coordinators ...
//     wake up periodically" (the duty cycle bounds Span's saving), and
//   - "Span (not location-aware) does not benefit from increasing host
//     density": the coordinator backbone scales with coverage, not with
//     density, and every non-coordinator still pays the duty cycle.
//
// Routing is host-by-host AODV restricted to the coordinator backbone,
// with final-hop buffering for sleeping destinations flushed on their
// periodic wake beacons.
package span

import (
	"cmp"
	"fmt"
	"slices"

	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/node"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// Options are Span's tunables.
type Options struct {
	// HelloPeriod is the interval between topology announcements.
	HelloPeriod float64
	// BeaconPeriod and AwakeFrac define the PSM duty cycle of
	// non-coordinators: awake AwakeFrac of every period.
	BeaconPeriod float64
	AwakeFrac    float64
	// CheckPeriod is how often the eligibility/withdrawal rules run.
	CheckPeriod float64
	// WithdrawGrace delays withdrawal so the backbone does not flap.
	WithdrawGrace float64
	// NeighborTTL expires neighbors that stopped announcing. Must
	// comfortably exceed BeaconPeriod: sleeping neighbors announce only
	// once per cycle.
	NeighborTTL float64
	routing.AODVOptions
}

// DefaultOptions returns the configuration used by the extension
// experiments.
func DefaultOptions() Options {
	return Options{
		HelloPeriod:   1.0,
		BeaconPeriod:  1.0,
		AwakeFrac:     0.25,
		CheckPeriod:   1.0,
		WithdrawGrace: 4.0,
		NeighborTTL:   4.0,
		AODVOptions: routing.AODVOptions{
			RouteTTL:         30,
			DupTTL:           30,
			BufferPerDest:    32,
			DiscoveryTimeout: 0.6,
			DiscoveryRetries: 3,
		},
	}
}

// Validate reports configuration mistakes.
func (o Options) Validate() error {
	switch {
	case o.HelloPeriod <= 0 || o.BeaconPeriod <= 0 || o.CheckPeriod <= 0:
		return fmt.Errorf("span: periods must be positive")
	case o.AwakeFrac <= 0 || o.AwakeFrac >= 1:
		return fmt.Errorf("span: AwakeFrac %v must be in (0, 1)", o.AwakeFrac)
	case o.NeighborTTL <= o.BeaconPeriod:
		return fmt.Errorf("span: NeighborTTL %v must exceed BeaconPeriod %v", o.NeighborTTL, o.BeaconPeriod)
	case o.WithdrawGrace < 0:
		return fmt.Errorf("span: negative WithdrawGrace")
	}
	return o.AODVOptions.Validate()
}

// Stats counts protocol events on one host.
type Stats struct {
	HellosSent     uint64
	CoordAnnounces uint64
	Withdrawals    uint64
	routing.AODVStats
	SleepsEntered uint64
}

// neighborInfo is what a host knows about a neighbor from its HELLOs.
type neighborInfo struct {
	id          hostid.ID
	coordinator bool
	seen        float64
	// neighbors is the neighbor's own neighbor set: the Neighbors slice
	// of its latest HELLO, kept by reference. It is ID-sorted, and the
	// sender builds a fresh one for every HELLO, so it never changes
	// under the receivers sharing it.
	neighbors []hostid.ID
}

// hears reports whether id is in the neighbor's own neighbor set.
func (n *neighborInfo) hears(id hostid.ID) bool {
	_, ok := slices.BinarySearch(n.neighbors, id)
	return ok
}

func compareID(n neighborInfo, id hostid.ID) int { return cmp.Compare(n.id, id) }

// Hello is Span's topology announcement.
type Hello struct {
	ID          hostid.ID
	Coordinator bool
	Rbrc        float64
	Neighbors   []hostid.ID
}

// helloBytes sizes the announcement: base fields plus 4 bytes per listed
// neighbor.
func helloBytes(neighbors int) int { return 16 + 4*neighbors }

// Protocol is one host's Span instance. Only coordinators relay
// floods; any awake host may originate, terminate, or answer for
// itself. A final-hop coordinator holding traffic for a sleeping
// destination buffers it until the destination's next wake beacon — the
// PSM behaviour the paper contrasts with ECGRID's instant RAS paging.
type Protocol struct {
	*routing.HostAODV
	host *node.Host
	opt  Options

	coordinator   bool
	coordSince    float64
	withdrawSince float64 // when withdrawal first looked safe; 0 = not pending

	neighbors []neighborInfo // sorted by id

	helloTicker *sim.Ticker
	checkTicker *sim.Ticker
	cycleTimer  *sim.Timer // PSM duty cycle
	wakeFn      func()     // host.WakeByTimer, bound once for every sleep
	pendingAnn  sim.Handle // randomized coordinator announcement backoff

	stopped bool
	Stats   Stats
}

// New creates a Span instance for host h.
func New(h *node.Host, opt Options) *Protocol {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	p := &Protocol{host: h, opt: opt}
	p.HostAODV = routing.NewHostAODV(h, opt.AODVOptions, p, &p.Stats.AODVStats, opt.BeaconPeriod)
	p.cycleTimer = sim.NewTimer(h.Engine(), p.cycleSleep)
	p.wakeFn = h.WakeByTimer
	return p
}

// Coordinator reports whether the host currently serves on the backbone.
func (p *Protocol) Coordinator() bool { return p.coordinator }

// --- node.Protocol -----------------------------------------------------------

// Start launches the announcement, eligibility, and duty-cycle machinery.
func (p *Protocol) Start() {
	jitter := p.host.RNG().Uniform(sim.StreamSpanPhase, 0, p.opt.HelloPeriod/2)
	p.helloTicker = sim.NewTicker(p.host.Engine(), p.opt.HelloPeriod, jitter, p.helloTick)
	p.checkTicker = sim.NewTicker(p.host.Engine(), p.opt.CheckPeriod, jitter/2, p.checkTick)
	p.sendHello()
	// Give the first topology exchange a couple of periods before the
	// duty cycle starts putting hosts to sleep.
	p.cycleTimer.Reset(2*p.opt.HelloPeriod + jitter)
}

// Stopped cancels everything on battery death.
func (p *Protocol) Stopped() {
	p.stopped = true
	if p.helloTicker != nil {
		p.helloTicker.Stop()
	}
	if p.checkTicker != nil {
		p.checkTicker.Stop()
	}
	p.cycleTimer.Stop()
	p.host.Engine().Cancel(p.pendingAnn)
	p.pendingAnn = sim.Handle{}
	p.HostAODV.Stop()
}

// Woken resumes the awake part of the duty cycle.
func (p *Protocol) Woken(cause node.WakeCause) {
	if p.stopped {
		return
	}
	// Announce presence so forwarders flush buffered traffic, then stay
	// awake for the window.
	p.sendHello()
	p.cycleTimer.Reset(p.opt.AwakeFrac * p.opt.BeaconPeriod)
}

// CellChanged is a no-op: Span is not location-aware.
func (p *Protocol) CellChanged(old, cur grid.Coord) {}

// Receive dispatches frames.
func (p *Protocol) Receive(f *radio.Frame) {
	if p.stopped {
		return
	}
	if m, ok := f.Payload.(*Hello); ok {
		p.handleHello(m)
		return
	}
	if !p.HostAODV.Receive(f) {
		panic(fmt.Sprintf("span: unknown payload %T", f.Payload))
	}
}

// --- routing.RelayPolicy -------------------------------------------------------

// RelaysFloods reports whether the host relays route requests: only the
// coordinator backbone does.
func (p *Protocol) RelaysFloods() bool { return p.coordinator }

// AnswersFor reports whether a coordinator replies for dst: a neighbour
// heard recently, which may be asleep. The coordinator buffers traffic
// for it until its wake beacon.
func (p *Protocol) AnswersFor(dst hostid.ID) bool {
	if !p.coordinator {
		return false
	}
	n := p.neighbor(dst)
	return n != nil && p.fresh(n)
}

// HoldsForWake reports whether dst is a duty-cycled neighbour: it may be
// asleep right now, so traffic waits for its beacon-window HELLO. If it
// is awake, the flush happens within one beacon period anyway.
func (p *Protocol) HoldsForWake(dst hostid.ID) bool {
	n := p.neighbor(dst)
	return n != nil && !n.coordinator
}

// LinkFailed tries an alternate route first, then re-discovers the
// host's own packet. A transit packet lost on its final hop to a
// duty-cycled destination waits for the destination's beacon; any other
// is dropped.
func (p *Protocol) LinkFailed(pkt *routing.DataPacket, hop hostid.ID) {
	switch {
	case p.Forward(pkt):
	case pkt.Src == p.host.ID():
		p.Rediscover(pkt)
	case pkt.Dst == hop:
		p.Hold(pkt)
	default:
		p.Stats.DataDropped++
	}
}

// --- duty cycle ----------------------------------------------------------------

// cycleSleep ends an awake window: non-coordinators sleep until the next
// beacon.
func (p *Protocol) cycleSleep() {
	if p.stopped || p.coordinator || p.host.Asleep() {
		// Coordinators stay awake; re-arm the cycle so a later
		// withdrawal resumes sleeping.
		p.cycleTimer.Reset(p.opt.BeaconPeriod)
		return
	}
	if p.pendingAnn.Pending() {
		// About to volunteer: stay awake one more window.
		p.cycleTimer.Reset(p.opt.AwakeFrac * p.opt.BeaconPeriod)
		return
	}
	sleepFor := (1 - p.opt.AwakeFrac) * p.opt.BeaconPeriod
	p.Stats.SleepsEntered++
	p.host.Engine().Schedule(sleepFor, p.wakeFn)
	p.host.Sleep()
}

// --- topology and the coordinator rule ------------------------------------------

func (p *Protocol) helloTick() {
	if p.stopped || p.host.Asleep() {
		return
	}
	p.sendHello()
}

func (p *Protocol) sendHello() {
	ids := p.freshNeighborIDs()
	p.Stats.HellosSent++
	p.host.SendFrame("span-hello", hostid.Broadcast,
		helloBytes(len(ids))+radio.MACHeaderBytes, &Hello{
			ID:          p.host.ID(),
			Coordinator: p.coordinator,
			Rbrc:        p.host.Battery().Rbrc(p.host.Now()),
			Neighbors:   ids,
		})
}

// freshNeighborIDs returns the IDs of the neighbors heard within
// NeighborTTL, ascending, in a fresh slice: sendHello hands it to every
// receiver of the HELLO, which keep it.
func (p *Protocol) freshNeighborIDs() []hostid.ID {
	ids := make([]hostid.ID, 0, len(p.neighbors))
	for i := range p.neighbors {
		if n := &p.neighbors[i]; p.fresh(n) {
			ids = append(ids, n.id)
		}
	}
	return ids
}

// fresh reports whether n was heard within NeighborTTL.
func (p *Protocol) fresh(n *neighborInfo) bool {
	return p.host.Now()-n.seen <= p.opt.NeighborTTL
}

// neighbor returns the table entry for id, nil when unknown. The pointer
// is valid until the table next changes.
func (p *Protocol) neighbor(id hostid.ID) *neighborInfo {
	i, ok := slices.BinarySearchFunc(p.neighbors, id, compareID)
	if !ok {
		return nil
	}
	return &p.neighbors[i]
}

func (p *Protocol) handleHello(m *Hello) {
	i, ok := slices.BinarySearchFunc(p.neighbors, m.ID, compareID)
	if !ok {
		p.neighbors = slices.Insert(p.neighbors, i, neighborInfo{id: m.ID})
	}
	n := &p.neighbors[i]
	n.coordinator = m.Coordinator
	n.seen = p.host.Now()
	n.neighbors = m.Neighbors
	// The sender is provably awake: flush anything held for its beacon
	// window.
	p.FlushTo(m.ID)
}

// checkTick applies the coordinator eligibility and withdrawal rules.
func (p *Protocol) checkTick() {
	if p.stopped || p.host.Asleep() {
		return
	}
	p.pruneNeighbors()
	if p.coordinator {
		p.maybeWithdraw()
		return
	}
	p.maybeVolunteer()
}

func (p *Protocol) pruneNeighbors() {
	p.neighbors = slices.DeleteFunc(p.neighbors, func(n neighborInfo) bool { return !p.fresh(&n) })
}

// uncoveredPair reports whether some pair of this host's neighbors cannot
// reach each other directly or through a coordinator other than `skip`
// (pass hostid.None to exclude nobody). This is Span's eligibility
// condition, restricted to one intermediate coordinator.
func (p *Protocol) uncoveredPair(skip hostid.ID) bool {
	ns := p.neighbors
	for i := range ns {
		u := &ns[i]
		if !p.fresh(u) {
			continue
		}
		for j := i + 1; j < len(ns); j++ {
			v := &ns[j]
			if !p.fresh(v) || u.hears(v.id) || v.hears(u.id) {
				continue // stale, or a direct link
			}
			if p.coveredByCoordinator(u.id, v.id, skip) {
				continue
			}
			return true
		}
	}
	return false
}

// coveredByCoordinator reports whether some coordinator (≠ skip) is a
// mutual neighbor of a and b.
func (p *Protocol) coveredByCoordinator(a, b, skip hostid.ID) bool {
	for i := range p.neighbors {
		c := &p.neighbors[i]
		if c.id == skip || !c.coordinator || !p.fresh(c) {
			continue
		}
		if c.hears(a) && c.hears(b) {
			return true
		}
	}
	return false
}

// maybeVolunteer schedules a coordinator announcement when the
// eligibility rule holds, after Span's randomized backoff (favouring
// high-energy hosts so they win the race).
func (p *Protocol) maybeVolunteer() {
	if p.pendingAnn.Pending() {
		return
	}
	if !p.uncoveredPair(hostid.None) {
		return
	}
	rbrc := p.host.Battery().Rbrc(p.host.Now())
	backoff := p.host.RNG().Uniform(sim.StreamSpanBackoff, 0, 1) * (1.5 - rbrc) * p.opt.CheckPeriod
	p.pendingAnn = p.host.Engine().Schedule(backoff, func() {
		p.pendingAnn = sim.Handle{}
		if p.stopped || p.coordinator || p.host.Asleep() {
			return
		}
		// Re-check: someone may have volunteered during the backoff.
		if !p.uncoveredPair(hostid.None) {
			return
		}
		p.coordinator = true
		p.coordSince = p.host.Now()
		p.withdrawSince = 0
		p.Stats.CoordAnnounces++
		p.sendHello()
	})
}

// maybeWithdraw steps down when the backbone covers every neighbor pair
// without us, after a grace period.
func (p *Protocol) maybeWithdraw() {
	if p.uncoveredPair(p.host.ID()) {
		p.withdrawSince = 0
		return
	}
	now := p.host.Now()
	if p.withdrawSince == 0 {
		p.withdrawSince = now
		return
	}
	if now-p.withdrawSince < p.opt.WithdrawGrace {
		return
	}
	p.coordinator = false
	p.withdrawSince = 0
	p.Stats.Withdrawals++
	p.sendHello()
	// The duty cycle resumes at its next firing (cycleSleep re-arms
	// while we were coordinator).
}
