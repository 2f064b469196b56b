package ecgrid

import (
	"fmt"
	"testing"

	"ecgrid/internal/core"
	"ecgrid/internal/experiment"
	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/mobility"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/sim"
)

// Repository-wide benchmarks.
//
// One benchmark regenerates each figure of the paper's evaluation (§4) in
// the experiment harness's fast mode — the sweeps are shrunk but keep
// their shape, so `go test -bench Fig` exercises every experiment
// end-to-end. cmd/figures runs the full-size sweeps.
//
// The Ablation* benchmarks quantify the design choices called out in
// DESIGN.md §5, and the Engine*/Sim* ones are micro-benchmarks of the
// hot substrate paths.

func benchFigure(b *testing.B, fig experiment.Figure) {
	b.ReportAllocs()
	opt := experiment.Options{Fast: true}
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		res, err := experiment.Run(fig, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig4a(b *testing.B) { benchFigure(b, experiment.Fig4a) }
func BenchmarkFig4b(b *testing.B) { benchFigure(b, experiment.Fig4b) }
func BenchmarkFig5a(b *testing.B) { benchFigure(b, experiment.Fig5a) }
func BenchmarkFig5b(b *testing.B) { benchFigure(b, experiment.Fig5b) }
func BenchmarkFig6a(b *testing.B) { benchFigure(b, experiment.Fig6a) }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, experiment.Fig6b) }
func BenchmarkFig7a(b *testing.B) { benchFigure(b, experiment.Fig7a) }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, experiment.Fig7b) }
func BenchmarkFig8a(b *testing.B) { benchFigure(b, experiment.Fig8a) }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, experiment.Fig8b) }

// benchScenario runs one simulation per iteration and reports
// domain-specific metrics alongside wall time.
func benchScenario(b *testing.B, cfg scenario.Config) {
	b.ReportAllocs()
	var rate, aen float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r := runner.Run(cfg)
		rate += r.DeliveryRate
		aen += r.Collector.Aen.Last()
	}
	b.ReportMetric(rate/float64(b.N), "delivery-rate")
	b.ReportMetric(aen/float64(b.N), "aen")
}

func shortScenario(p scenario.ProtocolKind) scenario.Config {
	cfg := scenario.Default(p)
	cfg.Duration = 200
	return cfg
}

// BenchmarkProtocolECGRID / GRID / GAF measure a 200-simulated-second run
// of the paper's common setup under each protocol.
func BenchmarkProtocolECGRID(b *testing.B) { benchScenario(b, shortScenario(scenario.ECGRID)) }
func BenchmarkProtocolGRID(b *testing.B)   { benchScenario(b, shortScenario(scenario.GRID)) }
func BenchmarkProtocolGAF(b *testing.B)    { benchScenario(b, shortScenario(scenario.GAF)) }
func BenchmarkProtocolAODV(b *testing.B)   { benchScenario(b, shortScenario(scenario.AODV)) }
func BenchmarkProtocolSpan(b *testing.B)   { benchScenario(b, shortScenario(scenario.SPAN)) }

// --- ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationNoCollision runs ECGRID on the idealized channel.
func BenchmarkAblationNoCollision(b *testing.B) {
	cfg := shortScenario(scenario.ECGRID)
	cfg.Radio.CollisionsEnabled = false
	benchScenario(b, cfg)
}

// BenchmarkAblationNoRAS disables on-demand paging: sleeping destinations
// receive buffered traffic only when their own dwell timers wake them,
// GAF-style. Quantifies what the RAS buys ECGRID.
func BenchmarkAblationNoRAS(b *testing.B) {
	cfg := shortScenario(scenario.ECGRID)
	o := core.DefaultOptions()
	o.UseRAS = false
	cfg.ECGRIDOptions = &o
	benchScenario(b, cfg)
}

// BenchmarkAblationNoLoadBalance disables band-drop retirement.
func BenchmarkAblationNoLoadBalance(b *testing.B) {
	cfg := shortScenario(scenario.ECGRID)
	o := core.DefaultOptions()
	o.LoadBalance = false
	cfg.ECGRIDOptions = &o
	benchScenario(b, cfg)
}

// BenchmarkAblationGlobalFlood removes search-area confinement: every
// RREQ floods the whole partition.
func BenchmarkAblationGlobalFlood(b *testing.B) {
	cfg := shortScenario(scenario.ECGRID)
	o := core.DefaultOptions()
	o.Search = core.SearchGlobal
	cfg.ECGRIDOptions = &o
	benchScenario(b, cfg)
}

// BenchmarkAblationHelloPeriod sweeps the HELLO period, the overhead the
// paper blames for ECGRID's lifetime gap against GAF.
func BenchmarkAblationHelloPeriod(b *testing.B) {
	for _, hp := range []float64{0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("period=%gs", hp), func(b *testing.B) {
			cfg := shortScenario(scenario.ECGRID)
			o := core.DefaultOptions()
			o.HelloPeriod = hp
			o.ElectionWait = hp / 2
			o.GatewayTimeout = 2.5 * hp
			o.NeighborGWTTL = 3 * hp
			o.MemberActiveTTL = 2.5 * hp
			cfg.ECGRIDOptions = &o
			benchScenario(b, cfg)
		})
	}
}

// BenchmarkAblationInterRREP lets intermediate gateways answer RREQs from
// fresh routes, AODV-style.
func BenchmarkAblationInterRREP(b *testing.B) {
	cfg := shortScenario(scenario.ECGRID)
	o := core.DefaultOptions()
	o.InterRREP = true
	cfg.ECGRIDOptions = &o
	benchScenario(b, cfg)
}

// --- substrate micro-benchmarks ------------------------------------------------

// BenchmarkEngineScheduleRun measures raw event throughput.
func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i), func() { n++ })
	}
	e.RunAll()
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkEngineTimerChurn measures timer reset/cancel patterns typical
// of protocol code.
func BenchmarkEngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	tm := sim.NewTimer(e, func() {})
	for i := 0; i < b.N; i++ {
		tm.Reset(1)
	}
	tm.Stop()
	e.RunAll()
}

// BenchmarkEngineClustered measures the event queue in the shape of the
// 10k-host soak: 50,000 pending timers, 1,000 of them due at each shared
// instant, each re-arming itself one period later when it fires. One op
// is one fired event; the steady state allocates nothing.
func BenchmarkEngineClustered(b *testing.B) {
	const (
		timers   = 50000
		instants = 50    // timers/instants = 1,000 timers per instant
		gap      = 0.002 // seconds between neighbouring instants
		period   = instants * gap
	)
	e := sim.NewEngine()
	ts := make([]*sim.Timer, timers)
	fired := 0
	for i := range ts {
		i := i
		ts[i] = sim.NewTimer(e, func() {
			ts[i].Reset(period)
			if fired++; fired == b.N {
				e.Stop()
			}
		})
		ts[i].Reset(float64(i%instants) * gap)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkMobilityPosition measures random-waypoint position queries.
func BenchmarkMobilityPosition(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRNG(1)
	area := geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000})
	w := mobility.NewRandomWaypoint(area, geom.Point{X: 500, Y: 500}, 10, 5, rng.Stream("m"))
	for i := 0; i < b.N; i++ {
		w.Position(float64(i % 10000))
	}
}

// BenchmarkMobilityNextCellChange measures the exact boundary-crossing
// solver that drives grid entry/exit events.
func BenchmarkMobilityNextCellChange(b *testing.B) {
	b.ReportAllocs()
	rng := sim.NewRNG(1)
	area := geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000})
	part := grid.NewPartition(area, 100)
	w := mobility.NewRandomWaypoint(area, geom.Point{X: 500, Y: 500}, 10, 5, rng.Stream("m"))
	t := 0.0
	for i := 0; i < b.N; i++ {
		t = mobility.NextCellChange(w, t, part, t+3600)
		if t > 1e7 {
			t = 0
		}
	}
}

// BenchmarkGridCellOf measures the position→cell mapping on the hot path
// of every frame delivery.
func BenchmarkGridCellOf(b *testing.B) {
	area := geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000})
	part := grid.NewPartition(area, 100)
	p := geom.Point{X: 123.4, Y: 567.8}
	for i := 0; i < b.N; i++ {
		part.CellOf(p)
	}
}

// BenchmarkExtensionLoadSweep exercises the heavy-traffic extension
// experiment (per-flow rate up to the paper's 10 pkt/s).
func BenchmarkExtensionLoadSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunLoadSweep(experiment.Options{Seed: int64(i + 1), Fast: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionOverhead exercises the air-usage breakdown experiment.
func BenchmarkExtensionOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiment.RunOverhead(experiment.Options{Seed: int64(i + 1), Fast: true})
		if len(res.Rows) != 3 {
			b.Fatal("bad overhead result")
		}
	}
}

// BenchmarkAblationMobilityModel compares the paper's random waypoint
// against the uniform-density random-direction model.
func BenchmarkAblationMobilityModel(b *testing.B) {
	for _, model := range []string{"waypoint", "direction"} {
		b.Run(model, func(b *testing.B) {
			cfg := shortScenario(scenario.ECGRID)
			cfg.Mobility = model
			benchScenario(b, cfg)
		})
	}
}

// BenchmarkAblationDesignate enables designated successors in RETIRE
// handovers (off by default; see the option's comment).
func BenchmarkAblationDesignate(b *testing.B) {
	cfg := shortScenario(scenario.ECGRID)
	o := core.DefaultOptions()
	o.DesignateSuccessor = true
	cfg.ECGRIDOptions = &o
	benchScenario(b, cfg)
}
