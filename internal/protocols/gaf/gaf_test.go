package gaf

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
	rng := sim.NewRNG(5)
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

func (tb *testbed) add(x, y float64, joules float64, endpoint bool) *Protocol {
	var bat *energy.Battery
	if math.IsInf(joules, 1) {
		bat = energy.NewInfiniteBattery(energy.PaperModel())
	} else {
		bat = energy.NewBattery(energy.PaperModel(), joules)
	}
	h := node.New(node.Config{
		ID: hostid.ID(len(tb.hosts)), Engine: tb.engine, RNG: tb.rng,
		Channel: tb.channel, Bus: tb.bus, Partition: tb.partition,
		Mobility: mobility.Stationary{At: geom.Point{X: x, Y: y}}, Battery: bat,
	})
	p := New(h, DefaultOptions(), endpoint)
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

func TestOneActiveNodePerGrid(t *testing.T) {
	tb := newTestbed(t)
	tb.add(150, 150, 500, false)
	tb.add(160, 160, 500, false)
	tb.add(140, 140, 500, false)
	tb.start()
	tb.engine.Run(10)
	active, sleeping := 0, 0
	for i, p := range tb.protos {
		switch p.State() {
		case "active":
			active++
		case "sleeping":
			if !tb.hosts[i].Asleep() {
				t.Errorf("host %d claims sleeping but is awake", i)
			}
			sleeping++
		}
	}
	if active != 1 {
		t.Fatalf("%d active nodes in one grid, want 1", active)
	}
	if sleeping != 2 {
		t.Fatalf("%d sleeping nodes, want 2", sleeping)
	}
}

func TestEndpointsNeverSleep(t *testing.T) {
	tb := newTestbed(t)
	tb.add(150, 150, 500, false)
	ep := tb.add(160, 160, math.Inf(1), true)
	tb.start()
	tb.engine.Run(60)
	if ep.State() != "endpoint" {
		t.Fatalf("endpoint state = %s", ep.State())
	}
	if tb.hosts[1].Asleep() {
		t.Fatal("endpoint slept")
	}
}

func TestRankPrefersActiveThenLifetimeThenID(t *testing.T) {
	if !rank(stateActive, 10, 5, stateDiscovery, 100, 1) {
		t.Error("active must outrank discovery")
	}
	if !rank(stateDiscovery, 100, 5, stateDiscovery, 10, 1) {
		t.Error("longer lifetime must win")
	}
	if !rank(stateDiscovery, 10, 1, stateDiscovery, 10, 5) {
		t.Error("smaller ID must break ties")
	}
	if rank(stateDiscovery, 10, 5, stateDiscovery, 10, 1) {
		t.Error("rank not antisymmetric")
	}
}

func TestAODVDeliveryAcrossHops(t *testing.T) {
	tb := newTestbed(t)
	// A line of forwarders 200 m apart; endpoints at the ends.
	src := tb.add(0, 500, math.Inf(1), true)
	tb.add(200, 500, 500, false)
	tb.add(400, 500, 500, false)
	tb.add(600, 500, 500, false)
	dst := tb.add(800, 500, math.Inf(1), true)
	tb.start()
	tb.engine.Run(5)
	tb.engine.Schedule(0.01, func() {
		src.SubmitData(pkt(1, src.host.ID(), dst.host.ID(), tb.engine.Now()))
	})
	tb.engine.Run(10)
	if len(tb.delivered) != 1 {
		t.Fatalf("delivered %d packets across 4 hops, want 1", len(tb.delivered))
	}
}

func TestStreamSurvivesActiveRotation(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(0, 500, math.Inf(1), true)
	tb.add(200, 500, 500, false)
	// Two routing-equivalent forwarders in the middle cell: rotation
	// between them must not break the flow for long.
	tb.add(440, 500, 500, false)
	tb.add(460, 500, 500, false)
	dst := tb.add(660, 500, math.Inf(1), true)
	_ = dst
	tb.start()
	tb.engine.Run(5)
	for i := 0; i < 60; i++ {
		seq := i + 1
		tb.engine.At(5+float64(i), func() {
			src.SubmitData(pkt(seq, src.host.ID(), tb.hosts[4].ID(), tb.engine.Now()))
		})
	}
	tb.engine.Run(70)
	if len(tb.delivered) < 50 {
		t.Fatalf("delivered %d/60 packets across rotations", len(tb.delivered))
	}
}

func TestLoopbackDelivery(t *testing.T) {
	tb := newTestbed(t)
	p := tb.add(100, 100, 500, false)
	tb.start()
	tb.engine.Run(3)
	p.SubmitData(pkt(1, p.host.ID(), p.host.ID(), tb.engine.Now()))
	if len(tb.delivered) != 1 {
		t.Fatal("loopback packet not delivered")
	}
}

func TestSleepingForwarderSavesEnergy(t *testing.T) {
	tb := newTestbed(t)
	tb.add(150, 150, 500, false)
	tb.add(160, 160, 500, false)
	tb.start()
	tb.engine.Run(50)
	a := tb.hosts[0].Battery().Consumed(50)
	b := tb.hosts[1].Battery().Consumed(50)
	lo, hi := math.Min(a, b), math.Max(a, b)
	if lo >= hi {
		t.Fatalf("no asymmetry between active (%.1f J) and sleeper (%.1f J)", hi, lo)
	}
	if lo > 0.6*hi {
		t.Fatalf("sleeper consumed %.1f J vs active %.1f J: saving too small", lo, hi)
	}
}

func TestDiscoveryFailsGracefully(t *testing.T) {
	tb := newTestbed(t)
	src := tb.add(100, 100, math.Inf(1), true)
	tb.add(200, 100, 500, false)
	tb.start()
	tb.engine.Run(5)
	// Destination 99 does not exist: the discovery must fail and drop.
	src.SubmitData(pkt(1, src.host.ID(), hostid.ID(99), tb.engine.Now()))
	tb.engine.Run(15)
	if len(tb.delivered) != 0 {
		t.Fatal("packet to nonexistent destination delivered")
	}
	if src.Stats.DataDropped == 0 {
		t.Fatal("failed discovery did not record a drop")
	}
}

func TestStateString(t *testing.T) {
	if stateDiscovery.String() != "discovery" || stateActive.String() != "active" ||
		stateSleeping.String() != "sleeping" {
		t.Error("state names wrong")
	}
	if state(9).String() != "state(9)" {
		t.Error("unknown state string wrong")
	}
}

// nodeNew builds a bare host for protocols constructed outside tb.add.
func nodeNew(tb *testbed, x, y float64) *node.Host {
	return node.New(node.Config{
		ID: hostid.ID(len(tb.hosts) + 50), Engine: tb.engine, RNG: tb.rng,
		Channel: tb.channel, Bus: tb.bus, Partition: tb.partition,
		Mobility: mobility.Stationary{At: geom.Point{X: x, Y: y}},
		Battery:  energy.NewBattery(energy.PaperModel(), 500),
	})
}
