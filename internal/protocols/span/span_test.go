package span

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
	rng := sim.NewRNG(3)
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

func (tb *testbed) add(x, y float64) *Protocol {
	h := node.New(node.Config{
		ID: hostid.ID(len(tb.hosts)), Engine: tb.engine, RNG: tb.rng,
		Channel: tb.channel, Bus: tb.bus, Partition: tb.partition,
		Mobility: mobility.Stationary{At: geom.Point{X: x, Y: y}},
		Battery:  energy.NewBattery(energy.PaperModel(), 500),
	})
	p := New(h, DefaultOptions())
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

func pkt(seq int, src, dst hostid.ID, at float64) *routing.DataPacket {
	return &routing.DataPacket{Flow: 1, Seq: seq, Src: src, Dst: dst, Bytes: 512, SentAt: at}
}

func TestBridgeHostBecomesCoordinator(t *testing.T) {
	tb := newTestbed(t)
	// A classic bridge: a and c are 400 m apart (out of range); b sits
	// between them. b's eligibility rule must fire.
	tb.add(100, 500)
	b := tb.add(300, 500)
	tb.add(500, 500)
	tb.start()
	tb.engine.Run(10)
	if !b.Coordinator() {
		t.Fatalf("bridge host not coordinator; announces=%d", b.Stats.CoordAnnounces)
	}
	if tb.hosts[1].Asleep() {
		t.Fatal("coordinator asleep")
	}
}

func TestCliqueNeedsNoCoordinator(t *testing.T) {
	tb := newTestbed(t)
	// Three mutually-in-range hosts: no pair is uncovered, so nobody
	// should serve (and everyone duty-cycles).
	tb.add(100, 100)
	tb.add(150, 100)
	tb.add(125, 140)
	tb.start()
	tb.engine.Run(20)
	for i, p := range tb.protos {
		if p.Coordinator() {
			t.Fatalf("host %d is coordinator in a clique", i)
		}
	}
	// And the duty cycle actually sleeps them part-time.
	slept := tb.protos[0].Stats.SleepsEntered + tb.protos[1].Stats.SleepsEntered + tb.protos[2].Stats.SleepsEntered
	if slept == 0 {
		t.Fatal("clique hosts never duty-cycled")
	}
}

func TestNonCoordinatorsDutyCycle(t *testing.T) {
	tb := newTestbed(t)
	tb.add(100, 500)
	tb.add(300, 500)
	tb.add(500, 500)
	tb.start()
	tb.engine.Run(60)
	// Energy check: a duty-cycled host must consume clearly less than
	// always-on idle but clearly more than pure sleep.
	idle := 0.863 * 60
	sleep := 0.163 * 60
	for i, p := range tb.protos {
		if p.Coordinator() {
			continue
		}
		c := tb.hosts[i].Battery().Consumed(60)
		if c >= idle*0.95 {
			t.Errorf("host %d consumed %.1f J, like always-on (%.1f)", i, c, idle)
		}
		if c <= sleep*1.05 {
			t.Errorf("host %d consumed %.1f J, like pure sleep (%.1f)", i, c, sleep)
		}
	}
}

func TestDeliveryAcrossBackbone(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 500)
	tb.add(300, 500) // bridge
	dst := tb.add(500, 500)
	tb.start()
	tb.engine.Run(10)
	for i := 0; i < 20; i++ {
		seq := i + 1
		tb.engine.At(10+float64(i), func() {
			src.SubmitData(pkt(seq, src.host.ID(), dst.host.ID(), tb.engine.Now()))
		})
	}
	tb.engine.Run(40)
	if len(tb.delivered) < 15 {
		t.Fatalf("delivered %d/20 across the backbone", len(tb.delivered))
	}
}

func TestBufferedDeliveryToSleepingDestination(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 500)
	coord := tb.add(300, 500)
	dst := tb.add(500, 500)
	tb.start()
	tb.engine.Run(10)
	if !coord.Coordinator() {
		t.Skip("topology did not elect the bridge (unexpected)")
	}
	// One packet; even if dst is asleep when it arrives, the per-beacon
	// wake must deliver it within roughly one beacon period.
	sendAt := 0.0
	var deliveredAt float64 = -1
	src.OnDeliver = nil
	dst.OnDeliver = func(p *routing.DataPacket) { deliveredAt = tb.engine.Now() }
	tb.engine.Schedule(0.35, func() { // mid-cycle: dst likely asleep
		sendAt = tb.engine.Now()
		src.SubmitData(pkt(1, src.host.ID(), dst.host.ID(), sendAt))
	})
	tb.engine.Run(20)
	if deliveredAt < 0 {
		t.Fatal("packet never delivered")
	}
	if wait := deliveredAt - sendAt; wait > 3*DefaultOptions().BeaconPeriod {
		t.Fatalf("waited %.2f s, more than ~3 beacon periods", wait)
	}
}

func TestWithdrawWhenCovered(t *testing.T) {
	tb := newTestbed(t)
	// Bridge scenario; then the far host "moves away" (dies), making
	// the coordinator redundant: it must withdraw and resume sleeping.
	tb.add(100, 500)
	b := tb.add(300, 500)
	far := tb.add(500, 500)
	tb.start()
	tb.engine.Run(10)
	if !b.Coordinator() {
		t.Fatal("setup: no coordinator")
	}
	// Remove the far host: b's remaining neighborhood is a clique.
	tb.engine.Schedule(0.1, func() { tb.channel.Detach(far.host.ID()) })
	far.Stopped()
	tb.engine.Run(10 + DefaultOptions().NeighborTTL + DefaultOptions().WithdrawGrace + 5)
	if b.Coordinator() {
		t.Fatal("redundant coordinator never withdrew")
	}
	if b.Stats.Withdrawals == 0 {
		t.Fatal("no withdrawal recorded")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	mutations := map[string]func(*Options){
		"period":       func(o *Options) { o.BeaconPeriod = 0 },
		"awake frac":   func(o *Options) { o.AwakeFrac = 1 },
		"neighbor ttl": func(o *Options) { o.NeighborTTL = 0.5 },
		"buffer":       func(o *Options) { o.BufferPerDest = 0 },
		"grace":        func(o *Options) { o.WithdrawGrace = -1 },
	}
	for name, mutate := range mutations {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHelloBytesGrowWithNeighbors(t *testing.T) {
	if helloBytes(0) >= helloBytes(10) {
		t.Fatal("hello size does not grow with the neighbor list")
	}
}

func TestCellChangedIsNoOp(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(100, 100)
	tb.start()
	tb.engine.Run(2)
	p.CellChanged(grid.Coord{X: 1, Y: 1}, grid.Coord{X: 2, Y: 1}) // must not panic
}

func TestStoppedLifecycle(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(100, 100)
	tb.start()
	tb.engine.Run(2)
	p.Stopped()
	p.SubmitData(pkt(1, p.host.ID(), 9, tb.engine.Now()))
	p.Woken(0)
	tb.engine.Run(20)
}

func TestDutyCycleMath(t *testing.T) {
	// Sanity on the energy arithmetic the package doc claims: a 25%
	// duty cycle costs 0.25·idle + 0.75·sleep.
	o := DefaultOptions()
	want := o.AwakeFrac*0.863 + (1-o.AwakeFrac)*0.163
	if math.Abs(want-0.338) > 0.01 {
		t.Fatalf("duty-cycle draw %v W, want ≈0.338", want)
	}
}

// beforeDutyCycle is a time inside the first two hello periods: the
// duty cycle has not started, so every host is awake.
const beforeDutyCycle = 1.0

func dataFrame(src, hop hostid.ID, p *routing.DataPacket) *radio.Frame {
	return &radio.Frame{Kind: "data", Src: src, Dst: hop, Bytes: 574, Payload: &routing.Data{Packet: p}}
}

func TestTxFailedPurgesRouteAndRediscovers(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 500)
	tb.add(300, 500) // bridge
	dst := tb.add(500, 500)
	tb.start()
	tb.engine.Run(10)
	// Poison the source's table with a dead next hop, then fail a frame
	// on it: TxFailed must purge and re-route via discovery.
	tb.engine.Schedule(0.01, func() {
		now := tb.engine.Now()
		tb.hosts[0].WakeByTimer()
		src.Table.Update(routing.AODVEntry{Dst: dst.host.ID(), NextHop: 77, Seq: 9}, now)
		src.TxFailed(dataFrame(src.host.ID(), 77, pkt(1, src.host.ID(), dst.host.ID(), now)))
	})
	tb.engine.Run(20)
	if e, ok := src.Table.Lookup(dst.host.ID(), tb.engine.Now()); !ok || e.NextHop == 77 {
		t.Fatalf("route after repair = %+v, %v", e, ok)
	}
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d after link-failure repair, want 1", len(tb.delivered))
	}
}

func TestTxFailedReroutesOwnPacketFirst(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100)
	alt := tb.add(150, 100)
	tb.start()
	tb.engine.Run(beforeDutyCycle)
	// The frame died on a stale hop while the table already holds a
	// route via another: Span takes it instead of re-discovering.
	now := tb.engine.Now()
	src.Table.Update(routing.AODVEntry{Dst: 9, NextHop: alt.host.ID(), Seq: 3}, now)
	rreqs, fwd := src.Stats.RREQsSent, src.Stats.DataForwarded
	src.TxFailed(dataFrame(src.host.ID(), 77, pkt(1, src.host.ID(), 9, now)))
	if src.Stats.RREQsSent != rreqs || src.Stats.DataForwarded != fwd+1 {
		t.Fatalf("RREQs %d→%d, forwarded %d→%d; want the alternate route taken at once",
			rreqs, src.Stats.RREQsSent, fwd, src.Stats.DataForwarded)
	}
}

func TestTxFailedDropsExpiredPacket(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100)
	tb.start()
	tb.engine.Run(beforeDutyCycle)
	old := pkt(1, src.host.ID(), hostid.ID(9), tb.engine.Now()-60)
	src.TxFailed(dataFrame(src.host.ID(), 77, old))
	if src.Stats.DataDropped != 1 {
		t.Fatalf("expired packet not dropped: %+v", src.Stats)
	}
}

func TestTxFailedIgnoresControl(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100)
	tb.start()
	tb.engine.Run(beforeDutyCycle)
	src.TxFailed(&radio.Frame{Kind: "rrep", Dst: 3, Bytes: 66, Payload: &routing.AODVRREP{}})
	if src.Stats != (Stats{HellosSent: src.Stats.HellosSent}) {
		t.Fatalf("control-frame failure changed counters: %+v", src.Stats)
	}
}

func TestTransitNoRouteSendsRERRToSource(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100)
	mid := tb.add(300, 100)
	tb.start()
	tb.engine.Run(beforeDutyCycle)
	now := tb.engine.Now()
	// The source believes mid can reach 99; mid has no route and must
	// drop + RERR, and the source must purge its entry.
	src.Table.Update(routing.AODVEntry{Dst: 99, NextHop: mid.host.ID(), Seq: 5}, now)
	mid.Table.Update(routing.AODVEntry{Dst: src.host.ID(), NextHop: src.host.ID(), Seq: 5}, now)
	tb.engine.Schedule(0.01, func() {
		src.SubmitData(pkt(1, src.host.ID(), hostid.ID(99), tb.engine.Now()))
	})
	tb.engine.Run(1.5)
	if mid.Stats.RERRsSent == 0 || mid.Stats.DataDropped != 1 {
		t.Fatalf("transit forwarder: %+v, want one drop and a RERR", mid.Stats)
	}
	if _, ok := src.Table.Lookup(99, tb.engine.Now()); ok {
		t.Fatal("source kept the broken route after RERR")
	}
}

func TestTxFailedHoldsFinalHopForBeacon(t *testing.T) {
	tb := newTestbed(t)
	relay := tb.add(100, 100)
	dst := tb.add(150, 100)
	tb.start()
	tb.engine.Run(beforeDutyCycle)
	// A transit packet's final hop failed, as when the destination
	// dozed off: hold it for the destination's next HELLO, not drop.
	relay.TxFailed(dataFrame(relay.host.ID(), dst.host.ID(), pkt(1, 50, dst.host.ID(), tb.engine.Now())))
	if relay.Stats.DataDropped != 0 || relay.Stats.RERRsSent != 0 {
		t.Fatalf("final-hop packet dropped or reported: %+v", relay.Stats)
	}
	tb.engine.Run(1.9)
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d after the destination's beacon, want 1", len(tb.delivered))
	}
}

func TestNonCoordinatorsDoNotRelayFloods(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100)
	tb.add(150, 100)
	tb.add(125, 140)
	tb.start()
	tb.engine.Run(beforeDutyCycle)
	src.SubmitData(pkt(1, src.host.ID(), hostid.ID(99), tb.engine.Now()))
	tb.engine.Run(1.5)
	for i, p := range tb.protos[1:] {
		if _, ok := p.Table.Lookup(src.host.ID(), tb.engine.Now()); !ok {
			t.Fatalf("host %d never heard the RREQ", i+1)
		}
		if p.Coordinator() || p.Stats.RREQsSent != 0 {
			t.Fatalf("host %d (coordinator %v) relayed %d RREQs", i+1, p.Coordinator(), p.Stats.RREQsSent)
		}
	}
}

func TestCoordinatorAnswersForSleepingNeighbor(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 500)
	coord := tb.add(300, 500)
	dst := tb.add(500, 500)
	tb.start()
	tb.engine.Run(10)
	if !coord.Coordinator() {
		t.Fatal("setup: no coordinator")
	}
	tb.engine.Schedule(0.01, func() {
		src.SubmitData(pkt(1, src.host.ID(), dst.host.ID(), tb.engine.Now()))
	})
	tb.engine.Run(20)
	// dst is out of the source's range and the coordinator answered
	// instead of relaying, so dst never saw the request.
	if dst.Stats.RREPsSent != 0 || coord.Stats.RREPsSent != 1 {
		t.Fatalf("RREPs: coordinator %d, destination %d; want 1 and 0",
			coord.Stats.RREPsSent, dst.Stats.RREPsSent)
	}
	if e, ok := coord.Table.Lookup(dst.host.ID(), tb.engine.Now()); !ok || e.NextHop != dst.host.ID() || e.Hops != 1 {
		t.Fatalf("coordinator's route to its neighbor = %+v, %v", e, ok)
	}
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(tb.delivered))
	}
}

func TestCoordinatorHoldsForDutyCycledDestination(t *testing.T) {
	tb := newTestbed(t)
	tb.add(100, 500)
	coord := tb.add(300, 500)
	dst := tb.add(500, 500)
	tb.start()
	tb.engine.Run(10)
	if !coord.Coordinator() {
		t.Fatal("setup: no coordinator")
	}
	fwd := coord.Stats.DataForwarded
	now := tb.engine.Now()
	coord.Table.Update(routing.AODVEntry{Dst: dst.host.ID(), NextHop: dst.host.ID(), Seq: 1, Hops: 1}, now)
	coord.SubmitData(pkt(1, coord.host.ID(), dst.host.ID(), now))
	if coord.Stats.DataForwarded != fwd {
		t.Fatal("sent to a duty-cycled destination without waiting for its beacon")
	}
	tb.engine.Run(now + 2*DefaultOptions().BeaconPeriod)
	if coord.Stats.DataForwarded != fwd+1 || len(tb.delivered) != 1 {
		t.Fatalf("forwarded %d, delivered %d after the beacon; want 1 and 1",
			coord.Stats.DataForwarded-fwd, len(tb.delivered))
	}
}
