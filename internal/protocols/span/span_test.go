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
