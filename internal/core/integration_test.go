package core

import (
	"math"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/mobility"
	"ecgrid/internal/node"
	"ecgrid/internal/radio"
	"ecgrid/internal/ras"
	"ecgrid/internal/routing"
	"ecgrid/internal/sim"
)

// testbed wires a small deterministic world for protocol tests.
type testbed struct {
	engine    *sim.Engine
	rng       *sim.RNG
	channel   *radio.Channel
	bus       *ras.Bus
	partition *grid.Partition
	hosts     []*node.Host
	protos    []*Protocol
	delivered []*routing.DataPacket
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	e := sim.NewEngine()
	rng := sim.NewRNG(7)
	area := geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000})
	part := grid.NewPartition(area, 100)
	cfg := radio.DefaultConfig()
	ch := radio.NewChannel(e, rng, cfg)
	return &testbed{
		engine:    e,
		rng:       rng,
		channel:   ch,
		bus:       ras.NewBus(e, part, ch, cfg.Range, ras.DefaultLatency),
		partition: part,
	}
}

// add creates a host running the protocol with the given options. mob may
// be nil for a stationary host at (x, y).
func (tb *testbed) add(opt Options, mob mobility.Model, x, y float64, joules float64) *Protocol {
	if mob == nil {
		mob = mobility.Stationary{At: geom.Point{X: x, Y: y}}
	}
	var bat *energy.Battery
	if math.IsInf(joules, 1) {
		bat = energy.NewInfiniteBattery(energy.PaperModel())
	} else {
		bat = energy.NewBattery(energy.PaperModel(), joules)
	}
	h := node.New(node.Config{
		ID: hostid.ID(len(tb.hosts)), Engine: tb.engine, RNG: tb.rng,
		Channel: tb.channel, Bus: tb.bus, Partition: tb.partition,
		Mobility: mob, Battery: bat,
	})
	p := New(h, opt)
	p.OnDeliver = func(pkt *routing.DataPacket) { tb.delivered = append(tb.delivered, pkt) }
	h.SetProtocol(p)
	tb.hosts = append(tb.hosts, h)
	tb.protos = append(tb.protos, p)
	return p
}

func (tb *testbed) start() {
	for _, h := range tb.hosts {
		h.Start()
	}
}

func (tb *testbed) gatewaysIn(cell grid.Coord) []*Protocol {
	var out []*Protocol
	for i, p := range tb.protos {
		if p.IsGateway() && tb.hosts[i].Cell() == cell && !tb.hosts[i].Dead() {
			out = append(out, p)
		}
	}
	return out
}

func pkt(flow, seq int, src, dst hostid.ID, at float64) *routing.DataPacket {
	return &routing.DataPacket{Flow: flow, Seq: seq, Src: src, Dst: dst, Bytes: 512, SentAt: at}
}

// --- election -----------------------------------------------------------------

func TestInitialElectionOneGatewayPerGrid(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	// Three hosts in cell (1,1), two in cell (2,1).
	tb.add(opt, nil, 150, 150, 500)
	tb.add(opt, nil, 160, 160, 500)
	tb.add(opt, nil, 140, 140, 500)
	tb.add(opt, nil, 250, 150, 500)
	tb.add(opt, nil, 260, 160, 500)
	tb.start()
	tb.engine.Run(10)

	if n := len(tb.gatewaysIn(grid.Coord{X: 1, Y: 1})); n != 1 {
		t.Fatalf("cell (1,1) has %d gateways, want 1", n)
	}
	if n := len(tb.gatewaysIn(grid.Coord{X: 2, Y: 1})); n != 1 {
		t.Fatalf("cell (2,1) has %d gateways, want 1", n)
	}
}

func TestElectionPrefersCenterWhenLevelsEqual(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	center := tb.add(opt, nil, 150, 150, 500) // exactly at cell center
	tb.add(opt, nil, 190, 190, 500)
	tb.add(opt, nil, 110, 120, 500)
	tb.start()
	tb.engine.Run(10)
	if !center.IsGateway() {
		t.Fatalf("center host not elected; roles: %v %v %v",
			tb.protos[0].Role(), tb.protos[1].Role(), tb.protos[2].Role())
	}
}

func TestElectionPrefersHigherBatteryLevel(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	tb.add(opt, nil, 150, 150, 500) // upper level but center
	strong := tb.add(opt, nil, 190, 190, 500)
	weak := tb.protos[0]
	// Drain host 0 to boundary level before the election completes: use
	// a smaller battery instead (200 J < 60% from the start ⇒ boundary
	// after... Rbrc is relative to its own full capacity, so use mode
	// drain: pre-drain by setting transmit mode briefly.
	weak.host.Battery().SetMode(0, energy.Transmit)
	tb.engine.Schedule(0.0001, func() {}) // placeholder tick
	tb.start()
	// Drain: 500 J at 1.433 W needs ~140 s to drop below 60% (300 J).
	// Too slow for the window; instead verify the comparator directly.
	me := &helloInfo{id: 0, level: energy.Boundary, dist: 0}
	other := &helloInfo{id: 1, level: energy.Upper, dist: 50}
	if !strong.better(other, me) {
		t.Fatal("upper-level candidate does not beat boundary-level candidate at better dist")
	}
	_ = weak
}

func TestGridOptionsElectionIgnoresBattery(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(GridOptions(), nil, 150, 150, 500)
	a := &helloInfo{id: 1, level: energy.Lower, dist: 5}
	b := &helloInfo{id: 2, level: energy.Upper, dist: 50}
	if !p.better(a, b) {
		t.Fatal("GRID election must prefer the center host regardless of battery")
	}
}

func TestElectionTieBreaksBySmallestID(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(DefaultOptions(), nil, 150, 150, 500)
	a := &helloInfo{id: 3, level: energy.Upper, dist: 10}
	b := &helloInfo{id: 7, level: energy.Upper, dist: 10}
	if !p.better(a, b) || p.better(b, a) {
		t.Fatal("equal level and distance must break ties by smaller ID")
	}
}

// --- sleeping -----------------------------------------------------------------

func TestMembersSleepAfterElection(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	tb.add(opt, nil, 150, 150, 500)
	tb.add(opt, nil, 180, 180, 500)
	tb.add(opt, nil, 120, 130, 500)
	tb.start()
	tb.engine.Run(15)
	sleeping := 0
	for _, h := range tb.hosts {
		if h.Asleep() {
			sleeping++
		}
	}
	if sleeping != 2 {
		t.Fatalf("%d hosts asleep, want 2 (all non-gateways)", sleeping)
	}
}

func TestGridBaselineNeverSleeps(t *testing.T) {
	tb := newTestbed(t)
	opt := GridOptions()
	tb.add(opt, nil, 150, 150, 500)
	tb.add(opt, nil, 180, 180, 500)
	tb.start()
	tb.engine.Run(30)
	for i, h := range tb.hosts {
		if h.Asleep() {
			t.Fatalf("host %d asleep under GRID options", i)
		}
	}
}

func TestSleepingMembersSaveEnergy(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	tb.add(opt, nil, 150, 150, 500)
	tb.add(opt, nil, 180, 180, 500)
	tb.start()
	tb.engine.Run(100)
	gwIdx, memIdx := 0, 1
	if !tb.protos[0].IsGateway() {
		gwIdx, memIdx = 1, 0
	}
	gw := tb.hosts[gwIdx].Battery().Consumed(100)
	mem := tb.hosts[memIdx].Battery().Consumed(100)
	if mem >= gw {
		t.Fatalf("sleeping member consumed %v J ≥ gateway's %v J", mem, gw)
	}
	// The member should be near the sleep floor (0.163 W) plus wake
	// blips; the gateway near idle (0.863 W) plus HELLOs.
	if mem > 0.35*gw {
		t.Fatalf("member consumed %v J, more than 35%% of gateway's %v J", mem, gw)
	}
}

// --- local data delivery -------------------------------------------------------

func TestDataToSleepingMemberIsPagedAndDelivered(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	gw := tb.add(opt, nil, 150, 150, 500)
	dst := tb.add(opt, nil, 180, 180, 500)
	tb.start()
	tb.engine.Run(15)
	if !gw.IsGateway() || !tb.hosts[1].Asleep() {
		t.Fatalf("setup wrong: roles %v/%v", gw.Role(), dst.Role())
	}
	// Inject a packet at the gateway addressed to the sleeping member.
	tb.engine.Schedule(0.01, func() {
		gw.SubmitData(pkt(1, 1, gw.host.ID(), dst.host.ID(), tb.engine.Now()))
	})
	tb.engine.Run(17)
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1 (page+buffer+flush)", len(tb.delivered))
	}
	if gw.Stats.PagesSent == 0 {
		t.Fatal("gateway did not page the sleeping destination")
	}
}

func TestSleepingSourceWakesAndSends(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	gw := tb.add(opt, nil, 150, 150, 500)
	src := tb.add(opt, nil, 180, 180, 500)
	tb.start()
	tb.engine.Run(15)
	if !tb.hosts[1].Asleep() {
		t.Fatal("source not asleep")
	}
	tb.engine.Schedule(0.01, func() {
		src.SubmitData(pkt(1, 1, src.host.ID(), gw.host.ID(), tb.engine.Now()))
	})
	tb.engine.Run(17)
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1 (ACQ handshake)", len(tb.delivered))
	}
	if src.Stats.ACQsSent == 0 {
		t.Fatal("source sent no ACQ")
	}
}

// --- multi-grid routing ---------------------------------------------------------

// line lays out one host per cell along row 1, at cell centers, plus a
// member beside the first and last gateways.
func lineTopology(tb *testbed, opt Options, cells int) (src, dst *Protocol) {
	for i := 0; i < cells; i++ {
		tb.add(opt, nil, 150+float64(i)*100, 150, 500)
	}
	src = tb.add(opt, nil, 130, 170, 500)                      // member in first cell
	dst = tb.add(opt, nil, 170+float64(cells-1)*100, 170, 500) // member in last cell
	return src, dst
}

func TestRouteDiscoveryAndDeliveryAcrossGrids(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	src, dst := lineTopology(tb, opt, 5)
	tb.start()
	tb.engine.Run(15)
	tb.engine.Schedule(0.01, func() {
		src.SubmitData(pkt(1, 1, src.host.ID(), dst.host.ID(), tb.engine.Now()))
	})
	tb.engine.Run(20)
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d packets across 5 grids, want 1", len(tb.delivered))
	}
	if tb.delivered[0].Dst != dst.host.ID() {
		t.Fatalf("wrong packet delivered: %v", tb.delivered[0])
	}
}

func TestStreamOfPacketsAcrossGrids(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	src, dst := lineTopology(tb, opt, 4)
	tb.start()
	tb.engine.Run(15)
	for i := 0; i < 20; i++ {
		seq := i + 1
		tb.engine.At(15+float64(i), func() {
			src.SubmitData(pkt(1, seq, src.host.ID(), dst.host.ID(), tb.engine.Now()))
		})
	}
	tb.engine.Run(40)
	if len(tb.delivered) < 19 {
		t.Fatalf("delivered %d/20 packets", len(tb.delivered))
	}
}

func TestGridBaselineRoutesToo(t *testing.T) {
	tb := newTestbed(t)
	opt := GridOptions()
	src, dst := lineTopology(tb, opt, 3)
	tb.start()
	tb.engine.Run(15)
	tb.engine.Schedule(0.01, func() {
		src.SubmitData(pkt(1, 1, src.host.ID(), dst.host.ID(), tb.engine.Now()))
	})
	tb.engine.Run(20)
	if len(tb.delivered) != 1 {
		t.Fatalf("GRID delivered %d packets, want 1", len(tb.delivered))
	}
}

// --- gateway handover -----------------------------------------------------------

func TestRetireElectsSuccessorAndTransfersTable(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	opt.RouteTTL = 0 // disable expiry so inheritance is observable late
	// a wins the first election (Upper band, at the center) but its
	// smaller battery drops to the boundary band while serving, which
	// triggers the load-balance retirement; b (still Upper) inherits.
	a := tb.add(opt, nil, 150, 150, 320) // below 60% (192 J) after ≈140 s of duty
	b := tb.add(opt, nil, 170, 170, 500)
	tb.start()
	tb.engine.Run(15)
	if !a.IsGateway() {
		t.Fatalf("setup: a is %v", a.Role())
	}
	// Seed a routing entry so inheritance is observable.
	a.Table().Update(routing.Entry{Dst: 99, NextGrid: grid.Coord{X: 2, Y: 1}, Seq: 5, Hops: 1}, tb.engine.Now())
	tb.engine.Run(250)
	if a.IsGateway() {
		t.Fatalf("a still gateway after dropping to %v band", tb.hosts[0].Level())
	}
	if !b.IsGateway() {
		t.Fatalf("successor not elected: b is %v", b.Role())
	}
	if a.Stats.RetiresSent == 0 {
		t.Fatal("no RETIRE sent")
	}
	if _, ok := b.Table().Lookup(99, tb.engine.Now()); !ok {
		t.Fatal("successor did not inherit the routing table")
	}
}

func TestGatewayDeathTriggersReelection(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	opt.RetireEnergySecs = 0 // die abruptly: no graceful retire
	opt.LoadBalance = false  // and no band-drop retirement either
	// Host 0 wins the first election (center) but has a tiny battery.
	a := tb.add(opt, nil, 150, 150, 12)
	b := tb.add(opt, nil, 170, 170, 500)
	tb.start()
	tb.engine.Run(5)
	if !a.IsGateway() {
		t.Fatalf("setup: a is %v", a.Role())
	}
	// a dies abruptly at ≈13 s. b sleeps with the 60 s dwell cap; on
	// its re-check wake the Awake probe goes unanswered — the paper's
	// no-gateway event case 2 — and b elects itself.
	tb.engine.Run(90)
	if !tb.hosts[0].Dead() {
		t.Fatal("a should be dead")
	}
	if !b.IsGateway() {
		t.Fatalf("b did not take over after gateway death: %v", b.Role())
	}
	if b.Stats.NoGatewayEvnts == 0 {
		t.Fatal("no no-gateway event recorded")
	}
}

func TestLoadBalanceRotatesGateways(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	// Two hosts: the first is elected, burns energy as gateway, drops a
	// band, retires; the second (still upper) takes over.
	tb.add(opt, nil, 150, 150, 500)
	tb.add(opt, nil, 170, 170, 500)
	tb.start()
	// Gateway at ~0.9 W drops below 60% (300 J) after ≈222 s; member
	// asleep at 0.163 W barely drains. By 400 s roles must have
	// swapped at least once.
	tb.engine.Run(400)
	if tb.protos[0].Stats.RetiresSent == 0 && tb.protos[1].Stats.RetiresSent == 0 {
		t.Fatal("no load-balance retirement in 400 s")
	}
	// Exactly one gateway must exist at the end.
	if n := len(tb.gatewaysIn(grid.Coord{X: 1, Y: 1})); n != 1 {
		t.Fatalf("%d gateways after rotation, want 1", n)
	}
}

func TestNoLoadBalanceWhenDisabled(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	opt.LoadBalance = false
	tb.add(opt, nil, 150, 150, 500)
	tb.add(opt, nil, 170, 170, 500)
	tb.start()
	tb.engine.Run(400)
	total := tb.protos[0].Stats.RetiresSent + tb.protos[1].Stats.RetiresSent
	if total != 0 {
		t.Fatalf("%d retirements with load balance disabled", total)
	}
}

// --- mobility-driven handover ----------------------------------------------------

func TestGatewayMovingOutHandsOver(t *testing.T) {
	tb := newTestbed(t)
	opt := DefaultOptions()
	// Moving host: crosses from cell (1,1) into (2,1) at t=20
	// (x: 150→210 at 3 m/s crosses 200 after ~16.7 s).
	mov := constVel{from: geom.Point{X: 150, Y: 150}, v: geom.Vector{DX: 3}}
	a := tb.add(opt, mov, 0, 0, 500)
	b := tb.add(opt, nil, 165, 165, 500)
	tb.start()
	tb.engine.Run(10)
	if !a.IsGateway() {
		t.Fatalf("setup: a is %v", a.Role())
	}
	tb.engine.Run(30)
	if b.Role() == "member" && !b.IsGateway() {
		// b must have been woken and elected.
		t.Fatalf("b did not take over after a left: %v", b.Role())
	}
	if got := tb.hosts[0].Cell(); got != (grid.Coord{X: 2, Y: 1}) {
		t.Fatalf("a in cell %v, want (2,1)", got)
	}
}

func TestMemberMovingOutNotifiesGateway(t *testing.T) {
	tb := newTestbed(t)
	opt := GridOptions() // keep everyone awake so the LEAVE is observable
	tb.add(opt, nil, 150, 150, 500)
	mov := constVel{from: geom.Point{X: 170, Y: 150}, v: geom.Vector{DX: 3}}
	m := tb.add(opt, mov, 0, 0, 500)
	tb.start()
	tb.engine.Run(30) // crosses x=200 at t=10
	if m.Stats.LeavesSent == 0 {
		t.Fatal("moving member sent no LEAVE")
	}
}

// --- helpers -------------------------------------------------------------------

type constVel struct {
	from geom.Point
	v    geom.Vector
}

func (m constVel) Position(t float64) geom.Point  { return m.from.Add(m.v.Scale(t)) }
func (m constVel) Velocity(t float64) geom.Vector { return m.v }
func (m constVel) NextTurn(float64) float64       { return math.Inf(1) }
func (m constVel) MaxSpeedMS() float64            { return m.v.Len() }
