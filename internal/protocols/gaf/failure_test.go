package gaf

import (
	"math"
	"testing"

	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
)

// Failure-path and lifecycle tests for the GAF + AODV baseline.

func TestSleepingSourceWakesToSend(t *testing.T) {
	tb := newTestbed(t)
	// Two forwarders in one cell (one will sleep) plus a destination
	// endpoint in range.
	a := tb.add(150, 150, 500, false)
	b := tb.add(160, 160, 500, false)
	dst := tb.add(250, 150, math.Inf(1), true)
	tb.start()
	tb.engine.Run(10)
	sleeper := a
	if !tb.hosts[0].Asleep() {
		sleeper = b
		if !tb.hosts[1].Asleep() {
			t.Fatal("nobody sleeping")
		}
	}
	sleeper.SubmitData(pkt(1, sleeper.host.ID(), dst.host.ID(), tb.engine.Now()))
	tb.engine.Run(20)
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d from a sleeping source, want 1", len(tb.delivered))
	}
}

func TestTxFailedPurgesRouteAndRediscovers(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, math.Inf(1), true)
	tb.add(250, 100, 500, false) // real forwarder
	dst := tb.add(450, 100, math.Inf(1), true)
	tb.start()
	tb.engine.Run(5)
	now := tb.engine.Now()
	// Poison the source's table with a dead next hop, then fail a frame
	// on it: TxFailed must purge and re-route via discovery.
	src.Table.Update(routing.AODVEntry{Dst: dst.host.ID(), NextHop: 77, Seq: 9}, now)
	p := pkt(1, src.host.ID(), dst.host.ID(), now)
	tb.engine.Schedule(0.01, func() {
		src.TxFailed(&radio.Frame{
			Kind: "data", Src: src.host.ID(), Dst: 77, Bytes: 574,
			Payload: &routing.Data{Packet: p},
		})
	})
	tb.engine.Run(10)
	if _, ok := src.Table.Lookup(dst.host.ID(), tb.engine.Now()); !ok {
		t.Fatal("no fresh route after repair")
	}
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d after link-failure repair, want 1", len(tb.delivered))
	}
}

func TestTxFailedRediscoversOwnPacketFirst(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, math.Inf(1), true)
	alt := tb.add(150, 100, math.Inf(1), true)
	tb.start()
	tb.engine.Run(5)
	// The frame died on a stale hop while the table already holds a
	// route via another: GAF re-discovers its own packet regardless.
	now := tb.engine.Now()
	src.Table.Update(routing.AODVEntry{Dst: 9, NextHop: alt.host.ID(), Seq: 3}, now)
	rreqs, fwd := src.Stats.RREQsSent, src.Stats.DataForwarded
	src.TxFailed(&radio.Frame{
		Kind: "data", Src: src.host.ID(), Dst: 77, Bytes: 574,
		Payload: &routing.Data{Packet: pkt(1, src.host.ID(), 9, now)},
	})
	if src.Stats.RREQsSent != rreqs+1 || src.Stats.DataForwarded != fwd {
		t.Fatalf("RREQs %d→%d, forwarded %d→%d; want a new discovery",
			rreqs, src.Stats.RREQsSent, fwd, src.Stats.DataForwarded)
	}
}

func TestTxFailedTransitSendsRERR(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, math.Inf(1), true)
	mid := tb.add(300, 100, 500, false)
	tb.start()
	tb.engine.Run(5)
	// mid's last hop to the destination failed and it knows no other
	// route: drop and report back, even on the final hop.
	now := tb.engine.Now()
	mid.Table.Update(routing.AODVEntry{Dst: src.host.ID(), NextHop: src.host.ID(), Seq: 5}, now)
	mid.TxFailed(&radio.Frame{
		Kind: "data", Src: mid.host.ID(), Dst: 9, Bytes: 574,
		Payload: &routing.Data{Packet: pkt(1, src.host.ID(), 9, now)},
	})
	if mid.Stats.DataDropped != 1 || mid.Stats.RERRsSent != 1 {
		t.Fatalf("transit link failure: %+v, want one drop and one RERR", mid.Stats)
	}
}

func TestTxFailedDropsExpiredPacket(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, math.Inf(1), true)
	tb.start()
	tb.engine.Run(15)
	old := pkt(1, src.host.ID(), hostid.ID(9), tb.engine.Now()-60)
	src.TxFailed(&radio.Frame{
		Kind: "data", Src: src.host.ID(), Dst: 77, Bytes: 574,
		Payload: &routing.Data{Packet: old},
	})
	if src.Stats.DataDropped != 1 {
		t.Fatalf("expired packet not dropped: %+v", src.Stats)
	}
}

func TestTxFailedIgnoresControl(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, 500, false)
	tb.start()
	tb.engine.Run(2)
	src.TxFailed(&radio.Frame{Kind: "rrep", Dst: 3, Bytes: 66, Payload: &routing.AODVRREP{}})
}

func TestTransitNoRouteSendsRERRToSource(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, math.Inf(1), true)
	mid := tb.add(300, 100, 500, false)
	tb.start()
	tb.engine.Run(5)
	now := tb.engine.Now()
	// The source believes mid can reach 99; mid has no route and must
	// drop + RERR, and the source must purge its entry.
	src.Table.Update(routing.AODVEntry{Dst: 99, NextHop: mid.host.ID(), Seq: 5}, now)
	mid.Table.Update(routing.AODVEntry{Dst: src.host.ID(), NextHop: src.host.ID(), Seq: 5}, now)
	tb.engine.Schedule(0.01, func() {
		src.SubmitData(pkt(1, src.host.ID(), hostid.ID(99), tb.engine.Now()))
	})
	tb.engine.Run(8)
	if mid.Stats.RERRsSent == 0 {
		t.Fatal("transit forwarder sent no RERR")
	}
	if _, ok := src.Table.Lookup(99, tb.engine.Now()); ok {
		t.Fatal("source kept the broken route after RERR")
	}
}

func TestCellChangedRestartsDiscoveryState(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(150, 150, 500, false)
	tb.start()
	tb.engine.Run(3)
	if p.State() != "active" {
		t.Fatalf("setup: %s", p.State())
	}
	p.CellChanged(grid.Coord{X: 1, Y: 1}, grid.Coord{X: 2, Y: 1})
	if p.State() != "discovery" {
		t.Fatalf("state after cell change = %s", p.State())
	}
	if p.Stats.DiscoveriesSent < 2 {
		t.Fatalf("no step-down announcement: %d", p.Stats.DiscoveriesSent)
	}
}

func TestStoppedLifecycle(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(150, 150, 500, false)
	tb.start()
	tb.engine.Run(2)
	p.Stopped()
	// Nothing may fire or panic afterwards.
	p.SubmitData(pkt(1, p.host.ID(), 9, tb.engine.Now()))
	p.Woken(0)
	p.CellChanged(grid.Coord{X: 1, Y: 1}, grid.Coord{X: 2, Y: 1})
	tb.engine.Run(20)
}

func TestDuplicateSubmitWhileDiscoveryPending(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, math.Inf(1), true)
	tb.add(250, 100, 500, false)
	tb.start()
	tb.engine.Run(5)
	// Two packets to an unreachable destination: one discovery runs,
	// both packets buffered, both dropped on exhaustion.
	src.SubmitData(pkt(1, src.host.ID(), hostid.ID(99), tb.engine.Now()))
	src.SubmitData(pkt(2, src.host.ID(), hostid.ID(99), tb.engine.Now()))
	tb.engine.Run(15)
	if src.Stats.DataDropped != 2 {
		t.Fatalf("DataDropped = %d, want 2", src.Stats.DataDropped)
	}
}

func TestGAFOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	mutations := map[string]func(*Options){
		"td":      func(o *Options) { o.Td = 0 },
		"ta frac": func(o *Options) { o.TaFrac = 2 },
		"ta max":  func(o *Options) { o.TaMax = 0 },
		"dup ttl": func(o *Options) { o.DupTTL = 0 },
		"buffer":  func(o *Options) { o.BufferPerDest = 0 },
		"disc":    func(o *Options) { o.DiscoveryTimeout = 0 },
	}
	for name, mutate := range mutations {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPlainAODVNeverSleepsButRelays(t *testing.T) {
	tb := newTestbed(t)
	// Build an AODV host manually (testbed adds GAF ones).
	h := nodeNew(tb, 300, 100)
	relay := NewAODV(h, DefaultOptions())
	relay.OnDeliver = func(pkt *routing.DataPacket) { tb.delivered = append(tb.delivered, pkt) }
	h.SetProtocol(relay)
	tb.hosts = append(tb.hosts, h)
	tb.protos = append(tb.protos, relay)

	src := tb.add(100, 100, math.Inf(1), true)
	dst := tb.add(500, 100, math.Inf(1), true)
	tb.start()
	tb.engine.Run(5)
	if relay.State() != "aodv" {
		t.Fatalf("state = %s", relay.State())
	}
	src.SubmitData(pkt(1, src.host.ID(), dst.host.ID(), tb.engine.Now()))
	tb.engine.Run(60)
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d via the AODV relay, want 1", len(tb.delivered))
	}
	if tb.hosts[0].Asleep() {
		t.Fatal("plain AODV host slept")
	}
}
