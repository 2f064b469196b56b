package core

import (
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// This file implements §3.3: route discovery confined to a searching
// area, the RREQ flood, the RREP reverse-path reply, and RERR recovery.

// pendingRREQ is a recently forwarded, unanswered request; if its
// destination announces itself here shortly after, the gateway answers
// late.
type pendingRREQ struct {
	req routing.RREQ
	at  float64
}

// pendingReqTTL bounds how stale a request a late answer may serve.
const pendingReqTTL = 2.0

// answerPendingRREQ sends a late RREP if a fresh pending request for id
// exists and id is now a registered local member.
func (p *Protocol) answerPendingRREQ(id hostid.ID) {
	pr, ok := p.pendingReq[id]
	if !ok || p.role != roleGateway {
		return
	}
	if p.host.Now()-pr.at > pendingReqTTL {
		delete(p.pendingReq, id)
		return
	}
	if p.isLocal(id) {
		delete(p.pendingReq, id)
		p.replyRREP(&pr.req, p.myGrid, 1)
	}
}

// discoveryState tracks one outstanding route discovery at the origin
// gateway.
type discoveryState struct {
	dst     hostid.ID
	tries   int
	timer   *sim.Timer
	lastReq *routing.RREQ
}

// startDiscovery begins (or restarts) route discovery for dst. Packets
// for dst wait in the buffer until an RREP installs a route.
func (p *Protocol) startDiscovery(dst hostid.ID) {
	if _, busy := p.discovery[dst]; busy {
		return
	}
	d := &discoveryState{dst: dst}
	d.timer = sim.NewTimer(p.host.Engine(), func() { p.discoveryTimeout(d) })
	p.discovery[dst] = d
	p.sendRREQ(d)
}

// searchAreaFor picks the searching area: the smallest rectangle covering
// our grid and the destination's last known grid (expanded by one cell as
// a mobility margin), or the whole partition when the destination's
// location is unknown — "a global search for a route is also needed when
// the source does not have location information concerning the
// destination" (§3.3).
func (p *Protocol) searchAreaFor(dst hostid.ID, attempt int) grid.SearchArea {
	part := p.host.Partition()
	policy := p.opt.Search
	if policy == SearchGlobal {
		return grid.GlobalSearchArea(part)
	}
	// The final retry always searches everywhere.
	if attempt > p.opt.DiscoveryRetries-1 ||
		(policy == SearchConfinedThenGlobal && attempt > 0) {
		return grid.GlobalSearchArea(part)
	}
	margin := 1
	if policy == SearchExpanding {
		margin = 1 << attempt // 1, 2, 4, ...
	}
	if e, ok := p.table.Lookup(dst, p.host.Now()); ok && part.Valid(e.DestGrid) {
		return grid.NewSearchArea(p.myGrid, e.DestGrid).Expand(margin, part)
	}
	if _, ok := p.hosts.Fresh(dst, p.host.Now()); ok {
		// Destination in our own grid: a small area suffices.
		return grid.NewSearchArea(p.myGrid, p.myGrid).Expand(margin, part)
	}
	return grid.GlobalSearchArea(part)
}

func (p *Protocol) sendRREQ(d *discoveryState) {
	req := &routing.RREQ{
		Src:      p.host.ID(),
		SrcSeq:   p.nextSeq(),
		Dst:      d.dst,
		BcastID:  p.nextBcastID(),
		Area:     p.searchAreaFor(d.dst, d.tries),
		OrigGrid: p.myGrid,
		PrevGrid: p.myGrid,
		Hops:     0,
		// Retried searches engage the RAS: somewhere a sleeping
		// destination may simply be unregistered (its sleep notice was
		// lost); paging it makes it announce itself.
		Page: d.tries > 0 && p.opt.UseRAS,
	}
	if e, ok := p.table.Lookup(d.dst, p.host.Now()); ok {
		req.DstSeq = e.Seq
	}
	d.lastReq = req
	// Mark our own request as seen so our rebroadcast logic ignores it.
	p.dup.Seen(req.Src, req.BcastID, p.host.Now())
	p.Stats.RREQsSent++
	p.host.SendFrame("rreq", hostid.Broadcast, routing.RREQBytes+radio.MACHeaderBytes, req)
	d.timer.Reset(p.opt.DiscoveryTimeout)
}

// discoveryTimeout retries a failed search with a wider (global) area,
// per §3.3: "Routes may fail to exist in the searching area. In such a
// situation, another round of route searching should be initialized to
// search all areas."
func (p *Protocol) discoveryTimeout(d *discoveryState) {
	if p.stopped || p.role != roleGateway {
		p.clearDiscovery(d.dst)
		return
	}
	if _, ok := p.table.Lookup(d.dst, p.host.Now()); ok {
		p.clearDiscovery(d.dst)
		p.flushRouted(d.dst)
		return
	}
	d.tries++
	if d.tries > p.opt.DiscoveryRetries {
		// Give up: drop the waiting packets.
		dropped := p.buffer.PopAll(d.dst)
		p.Stats.DataDropped += uint64(len(dropped))
		p.Stats.DropDiscovery += uint64(len(dropped))
		if DebugDrop != nil {
			for _, pk := range dropped {
				DebugDrop("discfail", pk)
			}
		}
		p.clearDiscovery(d.dst)
		return
	}
	p.sendRREQ(d)
}

func (p *Protocol) clearDiscovery(dst hostid.ID) {
	if d, ok := p.discovery[dst]; ok {
		d.timer.Stop()
		delete(p.discovery, dst)
	}
}

// handleRREQ processes a route request at a gateway (§3.3). Non-gateway
// hosts that happen to be awake ignore RREQs unless they are the
// destination themselves.
func (p *Protocol) handleRREQ(m *routing.RREQ) {
	now := p.host.Now()

	// A non-gateway destination replies through its own gateway, so a
	// member ignores RREQs entirely; the host-table check below covers
	// it at the gateway.
	if p.role != roleGateway {
		return
	}
	// "the gateway will first check whether it is within the area
	// defined by range" (§3.3).
	if !m.Area.Contains(p.myGrid) {
		return
	}
	if p.dup.Seen(m.Src, m.BcastID, now) {
		return
	}
	// Reverse route toward the source.
	p.table.Update(routing.Entry{
		Dst:      m.Src,
		NextGrid: m.PrevGrid,
		DestGrid: m.OrigGrid,
		Seq:      m.SrcSeq,
		Hops:     m.Hops,
	}, now)

	// Are we the destination, or its gateway?
	if m.Dst == p.host.ID() {
		p.replyRREP(m, p.myGrid, 0)
		return
	}
	if _, ok := p.hosts.Fresh(m.Dst, now); ok {
		p.replyRREP(m, p.myGrid, 1)
		return
	}
	// Optional AODV-style intermediate reply.
	if p.opt.InterRREP {
		if e, ok := p.table.Lookup(m.Dst, now); ok && e.Seq >= m.DstSeq && e.Seq > 0 {
			p.replyRREP(m, e.DestGrid, e.Hops)
			return
		}
	}
	// Paging search: transmit the destination's paging sequence in case
	// it sleeps unregistered in our grid, and remember the request so
	// its Awake answer can still be served.
	if m.Page && p.opt.UseRAS {
		if now-p.lastPage[m.Dst] > 1.0 {
			p.lastPage[m.Dst] = now
			p.Stats.PagesSent++
			p.host.Page(m.Dst)
		}
	}
	p.pendingReq[m.Dst] = pendingRREQ{req: *m, at: now}
	// Rebroadcast with ourselves as the previous grid.
	fwd := *m
	fwd.PrevGrid = p.myGrid
	fwd.Hops = m.Hops + 1
	p.Stats.RREQsSent++
	p.host.SendFrame("rreq", hostid.Broadcast, routing.RREQBytes+radio.MACHeaderBytes, &fwd)
}

// replyRREP unicasts a reply back along the reverse path.
func (p *Protocol) replyRREP(req *routing.RREQ, destGrid grid.Coord, hops int) {
	rep := &routing.RREP{
		Src:      req.Src,
		Dst:      req.Dst,
		DstSeq:   p.nextSeq(),
		DestGrid: destGrid,
		Hops:     hops,
		PrevGrid: p.myGrid,
		ToGrid:   req.PrevGrid,
	}
	p.Stats.RREPsSent++
	if req.PrevGrid == p.myGrid {
		// Single-grid discovery: install the route locally.
		p.table.Update(routing.Entry{
			Dst: req.Dst, NextGrid: destGrid, DestGrid: destGrid,
			Seq: rep.DstSeq, Hops: hops,
		}, p.host.Now())
		p.flushRouted(req.Dst)
		return
	}
	p.sendToGrid(req.PrevGrid, "rrep", routing.RREPBytes+radio.MACHeaderBytes, rep)
}

// handleRREP processes a route reply travelling the reverse path.
func (p *Protocol) handleRREP(m *routing.RREP) {
	if p.role != roleGateway || m.ToGrid != p.myGrid {
		return
	}
	now := p.host.Now()
	// Forward route: Dst is reachable via the grid the RREP came from.
	p.table.Update(routing.Entry{
		Dst:      m.Dst,
		NextGrid: m.PrevGrid,
		DestGrid: m.DestGrid,
		Seq:      m.DstSeq,
		Hops:     m.Hops + 1,
	}, now)

	if m.Src == p.host.ID() || p.isLocal(m.Src) {
		// The reply reached the origin gateway: discovery complete.
		p.clearDiscovery(m.Dst)
		p.flushRouted(m.Dst)
		return
	}
	// Continue along the reverse path using the stored reverse route.
	rev, ok := p.table.Lookup(m.Src, now)
	if !ok {
		return // reverse route expired; the origin will retry
	}
	fwd := *m
	fwd.PrevGrid = p.myGrid
	fwd.Hops = m.Hops + 1
	fwd.ToGrid = rev.NextGrid
	p.Stats.RREPsSent++
	p.sendToGrid(rev.NextGrid, "rrep", routing.RREPBytes+radio.MACHeaderBytes, &fwd)
}

// isLocal reports whether dst is a live member of this gateway's grid:
// its host-table row exists and has not aged out.
func (p *Protocol) isLocal(dst hostid.ID) bool {
	_, ok := p.hosts.Fresh(dst, p.host.Now())
	return ok
}

// flushRouted sends every buffered packet for dst now that a route (or
// the host itself) is available.
func (p *Protocol) flushRouted(dst hostid.ID) {
	for _, pkt := range p.buffer.PopAll(dst) {
		p.routeData(&routing.Data{Packet: pkt, TargetGrid: p.myGrid})
	}
}

// sendRERR reports a broken route for dst back toward the packet source,
// along the reverse path.
func (p *Protocol) sendRERR(pktSrc, dst hostid.ID) {
	rev, ok := p.table.Lookup(pktSrc, p.host.Now())
	if !ok {
		return
	}
	p.Stats.RERRsSent++
	p.sendToGrid(rev.NextGrid, "rerr", routing.RERRBytes+radio.MACHeaderBytes, &routing.RERR{
		Src:    pktSrc,
		Dst:    dst,
		ToGrid: rev.NextGrid,
	})
}

// handleRERR purges the broken route and propagates hop by hop toward the
// source's gateway, which will re-discover on the next packet.
func (p *Protocol) handleRERR(m *routing.RERR) {
	if p.role != roleGateway || m.ToGrid != p.myGrid {
		return
	}
	p.table.Remove(m.Dst)
	if m.Src == p.host.ID() || p.isLocal(m.Src) {
		return // reached the origin gateway; the purge is enough
	}
	rev, ok := p.table.Lookup(m.Src, p.host.Now())
	if !ok {
		return
	}
	fwd := *m
	fwd.ToGrid = rev.NextGrid
	p.Stats.RERRsSent++
	p.sendToGrid(rev.NextGrid, "rerr", routing.RERRBytes+radio.MACHeaderBytes, &fwd)
}
