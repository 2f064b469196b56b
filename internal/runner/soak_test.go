package runner

import (
	"fmt"
	"testing"

	"ecgrid/internal/core"
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

// TestECGRIDSoakInvariants runs a full-size ECGRID network and samples
// protocol-level invariants every second:
//
//   - gateway uniqueness: cells containing awake hosts converge to exactly
//     one gateway (transient violations during handovers are allowed, but
//     must stay rare);
//   - no awake host is ever without a role;
//   - accounting: unique deliveries never exceed submissions;
//   - energy conservation holds for every battery at every sample.
//
// It is the heavyweight randomized backstop behind the targeted tests;
// `-short` skips it.
func TestECGRIDSoakInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	engine := sim.NewEngine()
	rng := sim.NewRNG(99)
	area := geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000})
	part := grid.NewPartition(area, 100)
	rcfg := radio.DefaultConfig()
	channel := radio.NewChannel(engine, rng, rcfg)
	bus := ras.NewBus(engine, part, channel, rcfg.Range, ras.DefaultLatency)

	const n = 100
	hosts := make([]*node.Host, n)
	protos := make([]*core.Protocol, n)
	delivered := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		mob := mobility.NewRandomWaypoint(area,
			geom.Point{X: rng.Uniform(sim.StreamPlacement, 0, 1000), Y: rng.Uniform(sim.StreamPlacement, 0, 1000)},
			1, 0, rng.Stream(fmt.Sprintf(sim.StreamMobility, i)))
		h := node.New(node.Config{
			ID: hostid.ID(i), Engine: engine, RNG: rng, Channel: channel,
			Bus: bus, Partition: part, Mobility: mob,
			Battery: energy.NewBattery(energy.PaperModel(), 500),
		})
		p := core.New(h, core.DefaultOptions())
		p.OnDeliver = func(pkt *routing.DataPacket) { delivered[[2]int{pkt.Flow, pkt.Seq}] = true }
		h.SetProtocol(p)
		hosts[i], protos[i] = h, p
	}
	for _, h := range hosts {
		h.Start()
	}

	// Ten 1 pkt/s flows.
	sent := 0
	for f := 0; f < 10; f++ {
		f := f
		src, dst := f, 50+f
		seq := 0
		sim.NewTicker(engine, 1, 5+0.1*float64(f), func() {
			if hosts[src].Dead() {
				return
			}
			seq++
			sent++
			protos[src].SubmitData(&routing.DataPacket{
				Flow: f, Seq: seq, Src: hostid.ID(src), Dst: hostid.ID(dst),
				Bytes: 512, SentAt: engine.Now(),
			})
		})
	}

	samples, doubleGW, awakeNoRole := 0, 0, 0
	sim.NewTicker(engine, 1, 0.47, func() {
		samples++
		perCell := map[grid.Coord]int{}
		for i, p := range protos {
			if hosts[i].Dead() {
				continue
			}
			switch p.Role() {
			case "gateway":
				perCell[hosts[i].Cell()]++
			case "member", "sleeping":
			default:
				awakeNoRole++
			}
			// Energy conservation at every sample.
			b := hosts[i].Battery()
			total := b.Consumed(engine.Now()) + b.Remaining(engine.Now())
			if total < 499.9999 || total > 500.0001 {
				t.Fatalf("energy conservation violated on host %d: %v", i, total)
			}
		}
		for _, c := range perCell {
			if c > 1 {
				doubleGW++
			}
		}
	})

	engine.Run(400)

	if samples == 0 {
		t.Fatal("sampler never ran")
	}
	if awakeNoRole != 0 {
		t.Fatalf("%d role-less samples", awakeNoRole)
	}
	// Handsovers make double-gateway cells possible transiently; across
	// 400 samples of ~60 occupied cells they must stay rare.
	if frac := float64(doubleGW) / float64(samples); frac > 0.5 {
		t.Fatalf("double-gateway cells in %.1f%% of samples", 100*frac)
	}
	if len(delivered) > sent {
		t.Fatalf("delivered %d unique packets of %d sent", len(delivered), sent)
	}
	if len(delivered) < sent/2 {
		t.Fatalf("delivered only %d of %d", len(delivered), sent)
	}
}
