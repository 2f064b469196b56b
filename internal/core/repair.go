package core

import (
	"slices"

	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
)

// TxFailed is the link-layer "max retries exceeded" indication. ECGRID
// uses it the way AODV uses link-layer feedback: learn that the addressed
// host is gone and re-route the packet instead of losing it silently.
func (p *Protocol) TxFailed(f *radio.Frame) {
	if p.stopped || p.host.Asleep() {
		return
	}
	m, ok := f.Payload.(*routing.Data)
	if !ok {
		return // control traffic has its own timeout machinery
	}
	// Negative neighbor feedback: if the dead unicast addressed a
	// cached neighbor gateway, that cache entry is wrong — drop it so
	// the next decision does not repeat the mistake.
	p.neighbors = slices.DeleteFunc(p.neighbors, func(n neighborGW) bool { return n.id == f.Dst })
	if p.role != roleGateway {
		// A member's unicast to its gateway died: the gateway is gone.
		// Re-queue the packet and run the ACQ/no-gateway machinery.
		if p.gatewayID == f.Dst {
			p.gatewayID = hostid.None
		}
		p.pendingOut = append(p.pendingOut, m.Packet)
		if !p.acqTimer.Active() && !p.electing {
			p.startACQ()
		}
		return
	}
	// A gateway's forward died. If it was the last hop to a local
	// member, that member left or died: forget it and let the routing
	// path (stub, greedy, discovery) take over.
	if m.TargetGrid == p.myGrid {
		p.hosts.Remove(f.Dst)
	}
	p.routeData(m)
}
