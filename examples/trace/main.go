// Trace: watch ECGRID work at the packet level. A five-host, two-grid
// network runs for a minute with a 1 pkt/s flow while a trace recorder
// sniffs every transmission; the program then prints an annotated excerpt
// showing the paper's §3 machinery in action: the HELLO-based election,
// sleep notices, the ACQ handshake of a waking source, route discovery,
// and the page-buffer-flush delivery to a sleeping destination.
//
//	go run ./examples/trace
package main

import (
	"fmt"
	"os"

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
	"ecgrid/internal/trace"
)

func main() {
	engine := sim.NewEngine()
	rng := sim.NewRNG(7)
	area := geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000})
	part := grid.NewPartition(area, 100)
	rcfg := radio.DefaultConfig()
	channel := radio.NewChannel(engine, rng, rcfg)
	bus := ras.NewBus(engine, part, channel, rcfg.Range, ras.DefaultLatency)

	rec := trace.NewRecorder(4096)
	rec.AttachRadio(channel)

	// Five stationary hosts: three in cell (1,1), two in cell (2,1).
	positions := []geom.Point{
		{X: 150, Y: 150}, {X: 170, Y: 170}, {X: 130, Y: 140}, // cell (1,1)
		{X: 250, Y: 150}, {X: 270, Y: 170}, //                   cell (2,1)
	}
	var hosts []*node.Host
	var protos []*core.Protocol
	delivered := 0
	for i, pos := range positions {
		h := node.New(node.Config{
			ID: hostid.ID(i), Engine: engine, RNG: rng, Channel: channel,
			Bus: bus, Partition: part,
			Mobility: mobility.Stationary{At: pos},
			Battery:  energy.NewBattery(energy.PaperModel(), 500),
		})
		p := core.New(h, core.DefaultOptions())
		p.OnDeliver = func(pkt *routing.DataPacket) {
			delivered++
			rec.Record(engine.Now(), "deliver", pkt.Src, pkt.Dst,
				"seq=%d after %.1f ms", pkt.Seq, (engine.Now()-pkt.SentAt)*1000)
		}
		h.SetProtocol(p)
		hosts = append(hosts, h)
		protos = append(protos, p)
	}
	for _, h := range hosts {
		h.Start()
	}

	// One flow: host 1 (a member of cell (1,1) that sleeps between
	// packets) sends to host 4 (a member of cell (2,1) that must be
	// paged awake).
	seq := 0
	sim.NewTicker(engine, 1, 5, func() {
		seq++
		s := seq
		protos[1].SubmitData(&routing.DataPacket{
			Flow: 1, Seq: s, Src: hosts[1].ID(), Dst: hosts[4].ID(),
			Bytes: 512, SentAt: engine.Now(),
		})
	})

	engine.Run(60)

	fmt.Printf("60 simulated seconds, %d packets delivered\n", delivered)
	fmt.Printf("on-air event totals: %s\n\n", rec.Summarize())
	for i, p := range protos {
		fmt.Printf("host-%d: %-8s  sleeps=%-3d pages-sent=%d\n",
			i, p.Role(), p.Stats.SleepsEntered, p.Stats.PagesSent)
	}

	fmt.Println("\n--- the election and first sleep (t < 2 s) ---")
	show(rec, trace.Between(0, 2), trace.ByKind("hello", "sleep", "retire"))

	fmt.Println("\n--- one end-to-end delivery (ACQ wake, discovery, page, flush) ---")
	show(rec, trace.Between(5.9, 7.2),
		trace.ByKind("acq", "awake", "rreq", "rrep", "data", "deliver", "sleep"))
}

func show(rec *trace.Recorder, preds ...func(trace.Entry) bool) {
	entries := rec.Filter(preds...)
	const cap = 40
	if len(entries) > cap {
		entries = entries[:cap]
	}
	if err := trace.Write(os.Stdout, entries); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
