package routing

import (
	"fmt"

	"ecgrid/internal/hostid"
	"ecgrid/internal/node"
	"ecgrid/internal/radio"
	"ecgrid/internal/sim"
)

// AODVOptions are the tunables of host-by-host AODV. Protocols embed
// them in their own options, so their JSON encoding stays flat.
type AODVOptions struct {
	// RouteTTL expires a route this long after its last update; a
	// non-positive value disables expiry.
	RouteTTL float64
	// DupTTL is how long a flood's (Src, BcastID) stays remembered.
	DupTTL float64
	// BufferPerDest bounds the packets queued for one destination.
	BufferPerDest int
	// DiscoveryTimeout and DiscoveryRetries govern route requests.
	DiscoveryTimeout float64
	DiscoveryRetries int
}

// Validate reports configuration mistakes.
func (o AODVOptions) Validate() error {
	switch {
	case o.DupTTL <= 0:
		return fmt.Errorf("routing: DupTTL %v must be positive", o.DupTTL)
	case o.BufferPerDest <= 0:
		return fmt.Errorf("routing: BufferPerDest %d must be positive", o.BufferPerDest)
	case o.DiscoveryTimeout <= 0 || o.DiscoveryRetries < 0:
		return fmt.Errorf("routing: invalid discovery parameters (%v, %d)", o.DiscoveryTimeout, o.DiscoveryRetries)
	}
	return nil
}

// AODVStats counts one host's host-by-host AODV events. Protocols embed
// it in their own Stats.
type AODVStats struct {
	RREQsSent     uint64
	RREPsSent     uint64
	RERRsSent     uint64
	DataForwarded uint64
	DataDelivered uint64
	DataDropped   uint64
}

// RelayPolicy is what a protocol running HostAODV decides for itself:
// which hosts carry other hosts' traffic, and what happens to traffic
// for a duty-cycled neighbour.
type RelayPolicy interface {
	// RelaysFloods reports whether this host rebroadcasts other hosts'
	// route requests.
	RelaysFloods() bool
	// AnswersFor reports whether this host replies to a route request
	// on behalf of dst, a neighbour that may be asleep; the host then
	// routes to dst directly.
	AnswersFor(dst hostid.ID) bool
	// HoldsForWake reports whether a packet whose next hop is its
	// destination dst waits in the buffer for dst's wake beacon
	// instead of being sent now.
	HoldsForWake(dst hostid.ID) bool
	// LinkFailed decides the fate of a data packet, still fresh, whose
	// transmission to hop exhausted its retries. Routes via hop are
	// already purged.
	LinkFailed(pkt *DataPacket, hop hostid.ID)
}

// HostAODV is one host's host-by-host AODV, shared by the protocols
// that route without grids: GAF, plain AODV and Span. A route request
// floods over the hosts the policy lets relay; the destination (or a
// host answering for it) replies along the reverse path, and data then
// follows the next hops the reply installed.
type HostAODV struct {
	host      *node.Host
	opt       AODVOptions
	policy    RelayPolicy
	stats     *AODVStats
	wakeRetry float64

	// Table holds the host's routes.
	Table  *AODVTable
	dup    *DupCache
	buffer *Buffer
	disc   map[hostid.ID]*pendingDiscovery
	seqNo  uint32
	bcast  uint32

	// OnDeliver receives packets whose final destination is this host.
	OnDeliver func(pkt *DataPacket)

	stopped bool
}

type pendingDiscovery struct {
	tries int
	timer *sim.Timer
}

// NewHostAODV creates h's AODV instance. Counters go to stats. A
// discovery timer that fires while h sleeps tries again wakeRetry
// seconds later, in the host's next awake window.
func NewHostAODV(h *node.Host, opt AODVOptions, policy RelayPolicy, stats *AODVStats, wakeRetry float64) *HostAODV {
	return &HostAODV{
		host:      h,
		opt:       opt,
		policy:    policy,
		stats:     stats,
		wakeRetry: wakeRetry,
		Table:     NewAODVTable(opt.RouteTTL),
		dup:       NewDupCache(opt.DupTTL),
		buffer:    NewBuffer(opt.BufferPerDest),
		disc:      make(map[hostid.ID]*pendingDiscovery),
	}
}

// Stop cancels every pending discovery; the instance ignores all later
// calls. Protocols call it when their host dies.
func (a *HostAODV) Stop() {
	a.stopped = true
	for _, d := range a.disc { //simlint:ordered stops every timer; order-insensitive
		d.timer.Stop()
	}
}

// Receive handles the AODV frame kinds and reports whether f was one.
// A sleeping host is not listening, so it never gets here.
func (a *HostAODV) Receive(f *radio.Frame) bool {
	switch m := f.Payload.(type) {
	case *AODVRREQ:
		a.handleRREQ(m)
	case *AODVRREP:
		a.handleRREP(m, f.Src)
	case *RERR:
		a.Table.Remove(m.Dst)
	case *Data:
		a.handleData(m)
	default:
		return false
	}
	return true
}

// SubmitData accepts an application packet.
func (a *HostAODV) SubmitData(pkt *DataPacket) {
	if a.stopped {
		return
	}
	if pkt.Dst == a.host.ID() {
		a.deliver(pkt)
		return
	}
	if a.host.Asleep() {
		// A sleeping source wakes itself to transmit.
		a.buffer.Push(pkt.Dst, pkt)
		a.host.WakeByTimer()
		a.startDiscovery(pkt.Dst)
		return
	}
	if !a.Forward(pkt) {
		a.Rediscover(pkt)
	}
}

// Forward sends pkt along the current route to its destination and
// reports whether one existed.
func (a *HostAODV) Forward(pkt *DataPacket) bool {
	e, ok := a.Table.Lookup(pkt.Dst, a.host.Now())
	if ok {
		a.forwardData(e.NextHop, pkt)
	}
	return ok
}

// Rediscover buffers pkt and floods a route request for its destination.
func (a *HostAODV) Rediscover(pkt *DataPacket) {
	a.buffer.Push(pkt.Dst, pkt)
	a.startDiscovery(pkt.Dst)
}

// Hold buffers pkt until FlushTo its destination.
func (a *HostAODV) Hold(pkt *DataPacket) { a.buffer.Push(pkt.Dst, pkt) }

// FlushTo sends everything buffered for dst straight to dst, a
// neighbour that just proved awake.
func (a *HostAODV) FlushTo(dst hostid.ID) {
	for _, pkt := range a.buffer.PopAll(dst) {
		a.send(dst, pkt)
	}
}

// DropAndReport drops a packet that has no route and tells its source
// with a RERR, if the way back is known.
func (a *HostAODV) DropAndReport(pkt *DataPacket) {
	a.stats.DataDropped++
	if rev, ok := a.Table.Lookup(pkt.Src, a.host.Now()); ok {
		a.stats.RERRsSent++
		a.host.SendFrame("rerr", rev.NextHop, RERRBytes+radio.MACHeaderBytes, &RERR{Dst: pkt.Dst})
	}
}

func (a *HostAODV) deliver(pkt *DataPacket) {
	a.stats.DataDelivered++
	if a.OnDeliver != nil {
		a.OnDeliver(pkt)
	}
}

func (a *HostAODV) forwardData(nextHop hostid.ID, pkt *DataPacket) {
	if nextHop == pkt.Dst && a.policy.HoldsForWake(nextHop) {
		a.Hold(pkt)
		return
	}
	a.send(nextHop, pkt)
}

func (a *HostAODV) send(nextHop hostid.ID, pkt *DataPacket) {
	a.stats.DataForwarded++
	a.host.SendFrame("data", nextHop, pkt.Bytes+DataHeader+radio.MACHeaderBytes, &Data{Packet: pkt})
}

func (a *HostAODV) startDiscovery(dst hostid.ID) {
	if _, busy := a.disc[dst]; busy {
		return
	}
	d := &pendingDiscovery{}
	d.timer = sim.NewTimer(a.host.Engine(), func() { a.discoveryTimeout(dst, d) })
	a.disc[dst] = d
	a.sendRREQ(dst, d)
}

func (a *HostAODV) sendRREQ(dst hostid.ID, d *pendingDiscovery) {
	if a.host.Asleep() {
		return
	}
	a.seqNo++
	a.bcast++
	req := &AODVRREQ{
		Src: a.host.ID(), SrcSeq: a.seqNo, Dst: dst,
		BcastID: a.bcast, PrevHop: a.host.ID(),
	}
	a.dup.Seen(req.Src, req.BcastID, a.host.Now())
	a.stats.RREQsSent++
	a.host.SendFrame("rreq", hostid.Broadcast, RREQBytes+radio.MACHeaderBytes, req)
	d.timer.Reset(a.opt.DiscoveryTimeout)
}

func (a *HostAODV) discoveryTimeout(dst hostid.ID, d *pendingDiscovery) {
	if a.stopped {
		return
	}
	if a.host.Asleep() {
		d.timer.Reset(a.wakeRetry)
		return
	}
	if _, ok := a.Table.Lookup(dst, a.host.Now()); ok {
		a.clearDiscovery(dst)
		a.flush(dst)
		return
	}
	d.tries++
	if d.tries > a.opt.DiscoveryRetries {
		a.stats.DataDropped += uint64(len(a.buffer.PopAll(dst)))
		a.clearDiscovery(dst)
		return
	}
	a.sendRREQ(dst, d)
}

func (a *HostAODV) clearDiscovery(dst hostid.ID) {
	if d, ok := a.disc[dst]; ok {
		d.timer.Stop()
		delete(a.disc, dst)
	}
}

// flush sends the packets buffered for dst along its new route.
func (a *HostAODV) flush(dst hostid.ID) {
	e, ok := a.Table.Lookup(dst, a.host.Now())
	if !ok {
		return
	}
	for _, pkt := range a.buffer.PopAll(dst) {
		a.forwardData(e.NextHop, pkt)
	}
}

// handleRREQ records the reverse route, then answers, relays or drops
// the flood.
func (a *HostAODV) handleRREQ(m *AODVRREQ) {
	now := a.host.Now()
	if a.dup.Seen(m.Src, m.BcastID, now) {
		return
	}
	a.Table.Update(AODVEntry{Dst: m.Src, NextHop: m.PrevHop, Seq: m.SrcSeq, Hops: m.Hops}, now)
	switch {
	case m.Dst == a.host.ID():
		a.seqNo++
		a.sendRREP(&AODVRREP{Src: m.Src, Dst: m.Dst, DstSeq: a.seqNo, To: m.PrevHop})
	case a.policy.AnswersFor(m.Dst):
		a.seqNo++
		a.sendRREP(&AODVRREP{Src: m.Src, Dst: m.Dst, DstSeq: a.seqNo, Hops: 1, To: m.PrevHop})
		a.Table.Update(AODVEntry{Dst: m.Dst, NextHop: m.Dst, Seq: a.seqNo, Hops: 1}, now)
	case a.policy.RelaysFloods():
		fwd := *m
		fwd.PrevHop = a.host.ID()
		fwd.Hops = m.Hops + 1
		a.stats.RREQsSent++
		a.host.SendFrame("rreq", hostid.Broadcast, RREQBytes+radio.MACHeaderBytes, &fwd)
	}
}

func (a *HostAODV) sendRREP(rep *AODVRREP) {
	a.stats.RREPsSent++
	a.host.SendFrame("rrep", rep.To, RREPBytes+radio.MACHeaderBytes, rep)
}

// handleRREP installs the forward route — next hop is whoever
// transmitted this copy, exactly as AODV uses the sender MAC address —
// and relays the reply toward the origin along the reverse route.
func (a *HostAODV) handleRREP(m *AODVRREP, from hostid.ID) {
	if m.To != a.host.ID() {
		return
	}
	now := a.host.Now()
	a.Table.Update(AODVEntry{Dst: m.Dst, NextHop: from, Seq: m.DstSeq, Hops: m.Hops + 1}, now)
	if m.Src == a.host.ID() {
		a.clearDiscovery(m.Dst)
		a.flush(m.Dst)
		return
	}
	rev, ok := a.Table.Lookup(m.Src, now)
	if !ok {
		return
	}
	fwd := *m
	fwd.Hops = m.Hops + 1
	fwd.To = rev.NextHop
	a.sendRREP(&fwd)
}

// handleData delivers or relays a data frame.
func (a *HostAODV) handleData(m *Data) {
	pkt := m.Packet
	if pkt.Dst == a.host.ID() {
		a.deliver(pkt)
		return
	}
	now := a.host.Now()
	if e, ok := a.Table.Lookup(pkt.Dst, now); ok {
		a.Table.Touch(pkt.Dst, now)
		a.forwardData(e.NextHop, pkt)
		return
	}
	a.DropAndReport(pkt)
}

// TxFailed is the link-layer retry-exhausted indication: the next hop
// is gone. Routes through it are purged, a stale packet is dropped, and
// the policy decides what becomes of a fresh one.
func (a *HostAODV) TxFailed(f *radio.Frame) {
	if a.stopped || a.host.Asleep() {
		return
	}
	m, ok := f.Payload.(*Data)
	if !ok {
		return
	}
	a.Table.RemoveVia(f.Dst)
	if a.host.Now()-m.Packet.SentAt > 10 {
		a.stats.DataDropped++
		return
	}
	a.policy.LinkFailed(m.Packet, f.Dst)
}
