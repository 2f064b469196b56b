package core

import (
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
)

// These tests poke the discovery, forwarding and repair paths with
// controlled topologies built on the integration testbed.

func TestSearchAreaUnknownDestinationIsGlobal(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	area := p.searchAreaFor(hostid.ID(99), 0)
	if area.Cells() != 100 {
		t.Fatalf("unknown destination searched %d cells, want global 100", area.Cells())
	}
}

func TestSearchAreaConfinedWithKnownDestGrid(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	p.table.Update(routing.Entry{
		Dst: 99, NextGrid: grid.Coord{X: 2, Y: 1}, DestGrid: grid.Coord{X: 4, Y: 1}, Seq: 1,
	}, tb.engine.Now())
	area := p.searchAreaFor(99, 0)
	// Smallest rectangle covering (1,1) and (4,1), expanded by one.
	if !area.Contains(grid.Coord{X: 1, Y: 1}) || !area.Contains(grid.Coord{X: 4, Y: 1}) {
		t.Fatalf("area %v misses the endpoints", area)
	}
	if area.Cells() >= 100 {
		t.Fatalf("area not confined: %d cells", area.Cells())
	}
	// Retries widen to global, per §3.3.
	if p.searchAreaFor(99, 1).Cells() != 100 {
		t.Fatal("retry did not widen to a global search")
	}
}

func TestSearchGlobalOption(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	opt.Search = SearchGlobal
	p := tb.add(opt, nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	p.table.Update(routing.Entry{Dst: 99, DestGrid: grid.Coord{X: 2, Y: 1}, Seq: 1}, tb.engine.Now())
	if p.searchAreaFor(99, 0).Cells() != 100 {
		t.Fatal("SearchGlobal still confined the search")
	}
}

func TestRREQOutsideAreaIgnored(t *testing.T) {
	tb := newTestbed(t)
	// Gateways in cells (1,1) and (2,1); the RREQ's area covers only
	// column 5+, so neither may rebroadcast.
	a := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.add(DefaultOptions(), nil, 250, 150, 500)
	tb.start()
	tb.engine.Run(5)
	before := a.Stats.RREQsSent
	req := &routing.RREQ{
		Src: 98, SrcSeq: 1, Dst: 99, BcastID: 1,
		Area:     grid.NewSearchArea(grid.Coord{X: 5, Y: 0}, grid.Coord{X: 9, Y: 9}),
		OrigGrid: grid.Coord{X: 5, Y: 5}, PrevGrid: grid.Coord{X: 5, Y: 5},
	}
	a.handleRREQ(req)
	if a.Stats.RREQsSent != before {
		t.Fatal("gateway outside the searching area still forwarded the RREQ")
	}
}

func TestRREQDuplicateSuppressed(t *testing.T) {
	tb := newTestbed(t)
	a := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	req := &routing.RREQ{
		Src: 98, SrcSeq: 1, Dst: 99, BcastID: 7,
		Area:     grid.GlobalSearchArea(tb.partition),
		OrigGrid: grid.Coord{X: 5, Y: 5}, PrevGrid: grid.Coord{X: 2, Y: 1},
	}
	a.handleRREQ(req)
	first := a.Stats.RREQsSent
	a.handleRREQ(req) // identical (Src, BcastID)
	if a.Stats.RREQsSent != first {
		t.Fatal("duplicate RREQ rebroadcast")
	}
}

func TestRREQInstallsReverseRoute(t *testing.T) {
	tb := newTestbed(t)
	a := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	req := &routing.RREQ{
		Src: 98, SrcSeq: 5, Dst: 99, BcastID: 1,
		Area:     grid.GlobalSearchArea(tb.partition),
		OrigGrid: grid.Coord{X: 5, Y: 5}, PrevGrid: grid.Coord{X: 2, Y: 1}, Hops: 3,
	}
	a.handleRREQ(req)
	e, ok := a.table.Lookup(98, tb.engine.Now())
	if !ok {
		t.Fatal("no reverse route installed")
	}
	if e.NextGrid != (grid.Coord{X: 2, Y: 1}) || e.Seq != 5 || e.DestGrid != (grid.Coord{X: 5, Y: 5}) {
		t.Fatalf("reverse route = %+v", e)
	}
}

func TestInterRREPAnswersFromFreshRoute(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	opt.InterRREP = true
	a := tb.add(opt, nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	a.table.Update(routing.Entry{
		Dst: 99, NextGrid: grid.Coord{X: 2, Y: 1}, DestGrid: grid.Coord{X: 4, Y: 1}, Seq: 9, Hops: 3,
	}, tb.engine.Now())
	before := a.Stats.RREPsSent
	a.handleRREQ(&routing.RREQ{
		Src: 98, SrcSeq: 1, Dst: 99, DstSeq: 5, BcastID: 2,
		Area:     grid.GlobalSearchArea(tb.partition),
		OrigGrid: grid.Coord{X: 5, Y: 5}, PrevGrid: grid.Coord{X: 2, Y: 1},
	})
	if a.Stats.RREPsSent != before+1 {
		t.Fatal("intermediate gateway with a fresh route did not reply")
	}
}

func TestPacketTTLExpiry(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(15)
	old := pkt(1, 1, gw.host.ID(), hostid.ID(99), tb.engine.Now()-60) // 60 s old
	gw.routeData(&routing.Data{Packet: old, TargetGrid: gw.myGrid})
	if gw.Stats.DropExpired != 1 {
		t.Fatalf("expired packet not dropped: %+v", gw.Stats)
	}
}

func TestLeaveInstallsForwardingStub(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	gw.handleLeave(&routing.Leave{
		ID: 42, Grid: grid.Coord{X: 1, Y: 1}, NewGrid: grid.Coord{X: 2, Y: 1},
	})
	e, ok := gw.table.Lookup(42, tb.engine.Now())
	if !ok {
		t.Fatal("no stub installed")
	}
	if e.NextGrid != (grid.Coord{X: 2, Y: 1}) || e.Hops != 1 {
		t.Fatalf("stub = %+v", e)
	}
}

func TestLeaveForOtherGridIgnored(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	gw.hosts.Note(42, routing.HostActive, tb.engine.Now())
	gw.handleLeave(&routing.Leave{
		ID: 42, Grid: grid.Coord{X: 7, Y: 7}, NewGrid: grid.Coord{X: 8, Y: 7},
	})
	if !gw.KnowsMember(42) {
		t.Fatal("LEAVE for another grid removed a local member")
	}
}

func TestGreedyNeighborStrictProgress(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	now := tb.engine.Now()
	gw.noteNeighborGW(grid.Coord{X: 2, Y: 1}, 7, now)
	gw.noteNeighborGW(grid.Coord{X: 0, Y: 1}, 8, now)
	// Target east of us: only (2,1) makes progress.
	id, next, ok := gw.greedyNeighbor(grid.Coord{X: 5, Y: 1})
	if !ok || id != 7 || next != (grid.Coord{X: 2, Y: 1}) {
		t.Fatalf("greedy picked %v/%v/%v", id, next, ok)
	}
	// Target our own cell: nothing is strictly closer.
	if _, _, ok := gw.greedyNeighbor(grid.Coord{X: 1, Y: 1}); ok {
		t.Fatal("greedy progressed toward our own cell")
	}
	// Stale neighbors are not candidates.
	gw.noteNeighborGW(grid.Coord{X: 2, Y: 1}, 7, now-100)
	if _, _, ok := gw.greedyNeighbor(grid.Coord{X: 5, Y: 1}); ok {
		t.Fatal("greedy used a stale neighbor")
	}
}

func TestTxFailedClearsBadNeighborAndReroutes(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	now := tb.engine.Now()
	gw.noteNeighborGW(grid.Coord{X: 2, Y: 1}, 55, now)
	data := &routing.Data{
		Packet:     pkt(1, 1, gw.host.ID(), 99, now),
		TargetGrid: grid.Coord{X: 2, Y: 1},
		DestGrid:   grid.Coord{X: 5, Y: 1},
		HasDest:    true,
	}
	gw.TxFailed(&radio.Frame{Kind: "data", Src: gw.host.ID(), Dst: 55, Bytes: 100, Payload: data})
	if _, ok := gw.neighborGWAt(grid.Coord{X: 2, Y: 1}); ok {
		t.Fatal("failed neighbor not purged")
	}
}

func TestTxFailedIgnoresControlFrames(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	// Must not panic or change state for non-data payloads.
	gw.TxFailed(&radio.Frame{Kind: "hello", Dst: 3, Bytes: 20, Payload: &routing.Hello{}})
}

func TestPendingRREQAnsweredLate(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	// An RREQ for an unknown member arrives and is remembered...
	gw.handleRREQ(&routing.RREQ{
		Src: 98, SrcSeq: 1, Dst: 42, BcastID: 3,
		Area:     grid.GlobalSearchArea(tb.partition),
		OrigGrid: grid.Coord{X: 5, Y: 5}, PrevGrid: grid.Coord{X: 2, Y: 1},
	})
	before := gw.Stats.RREPsSent
	// ...then host 42 announces itself awake in this grid.
	gw.hosts.Note(42, routing.HostActive, tb.engine.Now())
	gw.answerPendingRREQ(42)
	if gw.Stats.RREPsSent != before+1 {
		t.Fatal("late answer not sent")
	}
	// A second announce must not answer twice.
	gw.answerPendingRREQ(42)
	if gw.Stats.RREPsSent != before+1 {
		t.Fatal("pending request answered twice")
	}
}

func TestRetireCarriesNewGridForMovedGateway(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	// Gateway moving east out of (1,1); a member stays behind.
	mov := constVel{from: geom.Point{X: 150, Y: 150}, v: geom.Vector{DX: 3}}
	a := tb.add(opt, mov, 0, 0, 500)
	b := tb.add(opt, nil, 160, 140, 500)
	tb.start()
	tb.engine.Run(10)
	if !a.IsGateway() {
		t.Fatalf("setup: a is %v", a.Role())
	}
	tb.engine.Run(40) // a crosses x=200 at ≈16.7 s; b takes over
	if !b.IsGateway() {
		t.Fatalf("b is %v", b.Role())
	}
	// b must hold a §3.4 stub for a pointing at a's new grid.
	e, ok := b.table.Lookup(a.host.ID(), tb.engine.Now())
	if !ok {
		t.Fatal("successor has no stub for the departed gateway")
	}
	if e.NextGrid != (grid.Coord{X: 2, Y: 1}) {
		t.Fatalf("stub points at %v", e.NextGrid)
	}
}

func TestMemberRedirectsMisdirectedData(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	gw := tb.add(opt, nil, 150, 150, 500)
	member := tb.add(opt, nil, 170, 170, 500)
	tb.start()
	tb.engine.Run(5)
	// Wake the member and mark activity so it stays in its idle window;
	// the Awake probe refreshes its gateway knowledge.
	tb.hosts[1].WakeByTimer()
	member.touchActivity()
	tb.engine.Run(5.2)
	if member.IsGateway() || tb.hosts[1].Asleep() || !member.gatewayFresh() {
		t.Fatalf("setup: member=%v asleep=%v fresh=%v",
			member.Role(), tb.hosts[1].Asleep(), member.gatewayFresh())
	}
	// Deliver a data frame for a third host to the member, as a stale
	// sender would: it must hand it to the real gateway, who will treat
	// it (no route, origin unknown) without crashing.
	member.handleData(&routing.Data{
		Packet:     pkt(1, 1, 98, 99, tb.engine.Now()),
		TargetGrid: grid.Coord{X: 1, Y: 1},
	})
	if member.Stats.DataDropped != 0 {
		t.Fatal("member dropped instead of redirecting while gateway known")
	}
	_ = gw
}

func TestSearchExpandingPolicy(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	opt.Search = SearchExpanding
	opt.DiscoveryRetries = 3
	p := tb.add(opt, nil, 150, 150, 500)
	tb.start()
	tb.engine.Run(5)
	p.table.Update(routing.Entry{
		Dst: 99, NextGrid: grid.Coord{X: 2, Y: 1}, DestGrid: grid.Coord{X: 3, Y: 1}, Seq: 1,
	}, tb.engine.Now())
	a0 := p.searchAreaFor(99, 0).Cells()
	a1 := p.searchAreaFor(99, 1).Cells()
	a2 := p.searchAreaFor(99, 2).Cells()
	final := p.searchAreaFor(99, 3).Cells()
	if !(a0 < a1 && a1 < a2) {
		t.Fatalf("areas not expanding: %d, %d, %d", a0, a1, a2)
	}
	if final != 100 {
		t.Fatalf("final attempt searched %d cells, want global 100", final)
	}
}

func TestSearchPolicyString(t *testing.T) {
	if SearchConfinedThenGlobal.String() != "confined-then-global" ||
		SearchExpanding.String() != "expanding" ||
		SearchGlobal.String() != "global" {
		t.Error("policy names wrong")
	}
	if SearchPolicy(9).String() != "SearchPolicy(?)" {
		t.Error("unknown policy string wrong")
	}
}
