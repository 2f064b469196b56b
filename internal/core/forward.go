package core

import (
	"slices"

	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
)

// This file implements the data path: grid-by-grid forwarding, buffering
// for sleeping destinations, and origin-side discovery triggering.

// handleData processes an incoming data frame.
func (p *Protocol) handleData(m *routing.Data) {
	pkt := m.Packet
	if pkt.Dst == p.host.ID() {
		// Final destination (any role, including a member that was
		// paged awake for exactly this).
		p.deliver(pkt)
		return
	}
	if p.role != roleGateway {
		// A data frame can reach a member through a stale unicast (the
		// sender still believes we are this grid's gateway). Hand it
		// to the real gateway rather than dropping it.
		if p.gatewayFresh() {
			p.host.SendFrame("data", p.gatewayID,
				pkt.Bytes+routing.DataHeader+radio.MACHeaderBytes, &routing.Data{Packet: pkt, TargetGrid: p.host.Cell(), DestGrid: m.DestGrid, HasDest: m.HasDest})
			return
		}
		p.Stats.DataDropped++
		p.Stats.DropMisdirect++
		return
	}
	if m.TargetGrid != p.myGrid {
		// Broadcast-fallback copy meant for another grid's gateway.
		return
	}
	p.routeData(m)
}

// routeData forwards a data packet from this gateway: deliver locally,
// pass to the next grid on the route, or start a discovery.
func (p *Protocol) routeData(m *routing.Data) {
	pkt := m.Packet
	now := p.host.Now()

	if p.opt.PacketTTL > 0 && now-pkt.SentAt > p.opt.PacketTTL {
		p.Stats.DataDropped++
		p.Stats.DropExpired++
		return
	}
	if pkt.Dst == p.host.ID() {
		p.deliver(pkt)
		return
	}
	// Destination inside our own grid: last-hop delivery (§3.3 —
	// "the gateway of D must wake D before forwarding data packets").
	if p.isLocal(pkt.Dst) {
		p.deliverLocal(pkt.Dst, pkt)
		return
	}
	// Forward along the grid route, but only if the next grid's gateway
	// is known to be alive: forwarding into a gatewayless grid is a
	// silent blackhole, and a route break we can detect here is a route
	// break the source can recover from.
	if e, ok := p.table.Lookup(pkt.Dst, now); ok {
		if gw, alive := p.freshNeighbor(e.NextGrid); alive {
			delete(p.holds, pkt.Dst)
			p.table.Touch(pkt.Dst, now)
			p.table.Touch(pkt.Src, now) // keep the reverse path alive too
			p.Stats.DataForwarded++
			fwd := &routing.Data{Packet: pkt, TargetGrid: e.NextGrid, DestGrid: e.DestGrid, HasDest: true}
			p.host.SendFrame("data", gw, pkt.Bytes+routing.DataHeader+radio.MACHeaderBytes, fwd)
			return
		}
		// The next grid has no (known) gateway right now. Routes are
		// grid chains, so a handover there repairs itself as soon as a
		// successor announces: hold the packet briefly and retry
		// rather than tearing the route down.
		if p.holds[pkt.Dst] < p.opt.HoldRetries {
			if p.holds == nil {
				p.holds = make(map[hostid.ID]int)
			}
			p.holds[pkt.Dst]++
			p.buffer.Push(pkt.Dst, pkt)
			dst := pkt.Dst
			p.host.Engine().Schedule(p.opt.HoldDelay, func() {
				if p.stopped || p.role != roleGateway || p.host.Asleep() {
					return
				}
				p.flushRouted(dst)
			})
			return
		}
		// Still no gateway after the hold window: the route is broken.
		delete(p.holds, pkt.Dst)
		p.table.Remove(pkt.Dst)
	}
	// No route entry, but the packet says the destination lives here:
	// page-and-buffer delivery. A host table that has never heard of
	// the destination still reaches a sleeping member through the RAS
	// page; a truly absent one triggers the unreachable verdict.
	if m.HasDest && m.DestGrid == p.myGrid {
		p.deliverLocal(pkt.Dst, pkt)
		return
	}
	// No usable route, but the packet knows where its destination
	// lives: forward greedily toward that grid through any alive
	// neighbor gateway that is strictly closer (location-aware
	// forwarding in the GRID spirit; strict progress prevents loops).
	if m.HasDest {
		if gw, next, ok := p.greedyNeighbor(m.DestGrid); ok {
			p.Stats.DataForwarded++
			fwd := &routing.Data{Packet: pkt, TargetGrid: next, DestGrid: m.DestGrid, HasDest: true}
			p.host.SendFrame("data", gw, pkt.Bytes+routing.DataHeader+radio.MACHeaderBytes, fwd)
			return
		}
	}
	// If we are the origin gateway (the packet entered the grid system
	// here), buffer and discover; otherwise report the break upstream
	// and drop.
	if p.originFor(pkt) {
		p.buffer.Push(pkt.Dst, pkt)
		p.startDiscovery(pkt.Dst)
		return
	}
	p.Stats.DataDropped++
	p.Stats.DropNoRoute++
	p.sendRERR(pkt.Src, pkt.Dst)
}

// neighborIndex binary-searches the neighbor-gateway table, kept sorted
// by cell (X, Y) so hot-path decisions iterate it in an order
// independent of the order HELLOs arrived in. It returns c's position,
// or its insertion point when absent.
func (p *Protocol) neighborIndex(c grid.Coord) (int, bool) {
	lo, hi := 0, len(p.neighbors)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n := p.neighbors[m].cell; n.X < c.X || n.X == c.X && n.Y < c.Y {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.neighbors) && p.neighbors[lo].cell == c
}

// neighborGWAt returns the cached gateway of cell c.
func (p *Protocol) neighborGWAt(c grid.Coord) (neighborGW, bool) {
	i, ok := p.neighborIndex(c)
	if !ok {
		return neighborGW{}, false
	}
	return p.neighbors[i], true
}

// noteNeighborGW records id as the gateway of cell c, heard at seen.
func (p *Protocol) noteNeighborGW(c grid.Coord, id hostid.ID, seen float64) {
	i, ok := p.neighborIndex(c)
	if !ok {
		p.neighbors = slices.Insert(p.neighbors, i, neighborGW{cell: c})
	}
	p.neighbors[i].id, p.neighbors[i].seen = id, seen
}

// greedyNeighbor picks the alive neighbor gateway whose grid is strictly
// closer (in grid hops) to target than our own, preferring the closest.
// The table is sorted by cell, so the equal-distance tie-break is the
// (X, Y)-smallest cell.
func (p *Protocol) greedyNeighbor(target grid.Coord) (gw hostid.ID, next grid.Coord, ok bool) {
	now := p.host.Now()
	best := p.myGrid.ChebyshevDist(target)
	found := false
	for _, n := range p.neighbors {
		if now-n.seen > p.opt.NeighborGWTTL {
			continue
		}
		// Strict progress toward the target; the first cell at the
		// winning distance keeps the slot.
		if d := n.cell.ChebyshevDist(target); d < best {
			best, gw, next, found = d, n.id, n.cell, true
		}
	}
	return gw, next, found
}

// freshNeighbor returns the believed-alive gateway of cell c. A gateway
// is believed alive while its gflag HELLOs keep arriving.
func (p *Protocol) freshNeighbor(c grid.Coord) (gw hostid.ID, alive bool) {
	n, ok := p.neighborGWAt(c)
	if !ok || p.host.Now()-n.seen > p.opt.NeighborGWTTL {
		return hostid.None, false
	}
	return n.id, true
}

// originFor reports whether this gateway is the packet's entry point into
// the grid-routing system: the source itself, or the gateway of the
// source's grid.
func (p *Protocol) originFor(pkt *routing.DataPacket) bool {
	return pkt.Src == p.host.ID() || p.isLocal(pkt.Src)
}
