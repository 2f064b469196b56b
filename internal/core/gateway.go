package core

import (
	"ecgrid/internal/energy"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
)

// This file implements the gateway-side duties: periodic self-checks
// (load balance, §3.2; energy-exhaustion retirement), the RETIRE
// handover, and the ACQ/awake/sleep bookkeeping of the host table.

// gatewayPeriodic runs on every HELLO tick while serving as gateway.
func (p *Protocol) gatewayPeriodic() {
	now := p.host.Now()

	// Retire before the battery runs out, so the RETIRE handover still
	// goes on air (§3.2).
	if !p.host.Battery().IsInfinite() &&
		p.host.Battery().TimeToEmpty(now, energy.Idle) < p.opt.RetireEnergySecs {
		p.retire(p.myGrid, "battery exhausted")
		return
	}

	// Load balance: quit when the battery band drops (upper→boundary or
	// boundary→lower). A gateway elected at the lower band serves until
	// the end (§3.2).
	if p.opt.LoadBalance && p.gwLevelAt != energy.Lower {
		if lvl := p.host.Level(); lvl < p.gwLevelAt {
			p.retire(p.myGrid, "load balance")
			return
		}
	}
}

// retire performs the §3.2 departure procedure for cell: wake everyone
// with the broadcast sequence, wait τ, then hand the tables over in a
// RETIRE broadcast. Afterwards this host is a plain member.
func (p *Protocol) retire(cell grid.Coord, reason string) {
	if p.role != roleGateway {
		return
	}
	p.role = roleMember
	p.gatewayID = hostid.None
	p.Stats.RetiresSent++
	if p.opt.SleepEnabled && p.opt.UseRAS {
		p.Stats.GridPagesSent++
		p.host.PageGrid(cell)
	}
	retireMsg := &routing.Retire{
		Grid:      cell,
		Routes:    p.table.Snapshot(p.host.Now()),
		Hosts:     p.hosts.Snapshot(),
		Leaving:   p.host.ID(),
		Successor: hostid.None,
	}
	if p.opt.DesignateSuccessor {
		retireMsg.Successor = p.pickSuccessor()
	}
	p.hosts = routing.NewHostTableTTL(p.opt.MemberActiveTTL, p.opt.MemberSleepTTL)
	p.host.Engine().Schedule(p.opt.Tau, func() {
		if p.stopped || p.host.Asleep() {
			return
		}
		if p.role == roleGateway {
			return // re-elected meanwhile; stay in charge
		}
		if cur := p.host.Cell(); cur != cell {
			// We moved out: tell the successor where our traffic
			// should follow (§3.4 for gateways).
			retireMsg.NewGrid = cur
			retireMsg.HasNew = true
		} else {
			// In-place retirement (load balance / exhaustion): we stay
			// as a member; the successor should know us.
			retireMsg.Hosts = append(retireMsg.Hosts, routing.HostEntry{
				ID: p.host.ID(), Status: routing.HostActive, LastSeen: p.host.Now(),
			})
		}
		p.host.SendFrame("retire", hostid.Broadcast,
			retireMsg.SizeBytes()+radio.MACHeaderBytes, retireMsg)
		// If we retired in place (load balance / exhaustion) we also
		// take part in the successor election as a regular member.
		if p.host.Cell() == cell {
			p.sendHelloJittered(p.opt.HelloPeriod * p.opt.HelloJitterFrac)
			p.startElection()
		}
	})
}

// pickSuccessor applies the election rules to the freshest HELLO data
// the retiring gateway holds about its grid-mates. hostid.None means no
// viable candidate is known and receivers run a normal election.
func (p *Protocol) pickSuccessor() hostid.ID {
	now := p.host.Now()
	var best *helloInfo
	//simlint:ordered better() is a strict total order (id tie-break), so the argmax is unique
	for _, h := range p.heard {
		if h.id == p.host.ID() {
			continue
		}
		if now-h.at > p.opt.MemberSleepTTL {
			continue
		}
		if _, member := p.hosts.Fresh(h.id, now); !member {
			continue
		}
		if best == nil || p.better(h, best) {
			best = h
		}
	}
	if best == nil {
		return hostid.None
	}
	return best.id
}

// handleACQ processes the shared ACQ payload, which carries three
// meanings distinguished by Dst:
//
//   - Dst == sleepMarker: a member announcing it is going to sleep;
//   - Dst == hostid.None: a member announcing it is awake (flush buffer);
//   - otherwise: §3.3's acquire message — a woken member wants to send
//     to Dst; respond with a HELLO so it learns the current gateway.
func (p *Protocol) handleACQ(m *routing.ACQ, from hostid.ID) {
	if p.role != roleGateway || m.Grid != p.myGrid {
		return
	}
	now := p.host.Now()
	switch m.Dst {
	case sleepMarker:
		p.hosts.Note(m.Src, routing.HostSleeping, now)
		return
	case hostid.None:
		p.hosts.Note(m.Src, routing.HostActive, now)
		p.flushBuffer(m.Src)
		p.answerPendingRREQ(m.Src)
		// Reply so hosts whose gateway changed while they slept learn
		// the new identity (the paper's handshake rationale).
		p.sendHello()
		return
	default:
		p.hosts.Note(m.Src, routing.HostActive, now)
		p.flushBuffer(m.Src)
		p.answerPendingRREQ(m.Src)
		p.sendHello()
	}
	_ = from
}

// flushBuffer forwards every packet buffered for dst, which is now awake.
func (p *Protocol) flushBuffer(dst hostid.ID) {
	for _, pkt := range p.buffer.PopAll(dst) {
		p.sendDataToLocal(dst, pkt)
	}
}

// sendDataToLocal unicasts a data packet to a host in this gateway's own
// grid.
func (p *Protocol) sendDataToLocal(dst hostid.ID, pkt *routing.DataPacket) {
	p.Stats.DataForwarded++
	p.host.SendFrame("data", dst,
		pkt.Bytes+routing.DataHeader+radio.MACHeaderBytes, &routing.Data{Packet: pkt, TargetGrid: p.myGrid})
}

// deliverLocal moves a packet the last hop inside the grid: directly if
// the destination is known active, via page-and-buffer if it sleeps.
func (p *Protocol) deliverLocal(dst hostid.ID, pkt *routing.DataPacket) {
	now := p.host.Now()
	st, known := p.hosts.Fresh(dst, now)
	if known && st.Status == routing.HostActive {
		p.sendDataToLocal(dst, pkt)
		return
	}
	// Sleeping or unknown: buffer, page, and give the destination a
	// chance to answer before declaring it unreachable.
	p.buffer.Push(dst, pkt)
	if p.opt.UseRAS {
		p.Stats.PagesSent++
		p.host.Page(dst)
	}
	// Verdict delay: with RAS the page answer arrives within
	// milliseconds; without it, a known sleeper flushes on its own
	// wake (no verdict scheduled) and an unknown host gets one HELLO
	// period to show up.
	var wait float64
	switch {
	case p.opt.UseRAS:
		wait = p.opt.FlushDelay
	case !known:
		wait = 1.2 * p.opt.HelloPeriod
	default:
		return // known sleeper, no paging: wait for its dwell wake-up
	}
	p.host.Engine().Schedule(wait, func() {
		if p.stopped || p.role != roleGateway || p.host.Asleep() {
			return
		}
		if p.buffer.Pending(dst) == 0 {
			return // the Awake notice already flushed it
		}
		if p.isLocal(dst) {
			// We have heard of the host; the page should have woken
			// it. Send even if no Awake arrived — MAC retries cover a
			// lost first frame.
			p.flushBuffer(dst)
			return
		}
		// No trace of the destination in this grid: it moved away (or
		// died). Drop and tell the source so it re-discovers.
		dropped := len(p.buffer.PopAll(dst))
		p.Stats.DataDropped += uint64(dropped)
		p.Stats.DropUnreach += uint64(dropped)
		p.sendRERR(pkt.Src, dst)
	})
}

// sendToGrid forwards a grid-addressed payload: unicast to the cached
// gateway of the target grid when known and fresh, else broadcast (the
// gateway of that grid filters by TargetGrid).
func (p *Protocol) sendToGrid(target grid.Coord, kind string, bytes int, payload any) {
	now := p.host.Now()
	if gw, ok := p.neighborGWAt(target); ok && now-gw.seen <= p.opt.NeighborGWTTL {
		p.host.SendFrame(kind, gw.id, bytes, payload)
		return
	}
	p.host.SendFrame(kind, hostid.Broadcast, bytes, payload)
}
