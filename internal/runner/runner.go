// Package runner assembles and executes whole simulations: it builds the
// substrates (engine, channel, RAS bus, mobility, batteries), attaches
// the protocol under test to every host, wires the CBR traffic and the
// metrics collector, runs the event loop, and returns the measured
// results.
package runner

import (
	"encoding/json"
	"fmt"

	"ecgrid/internal/core"
	"ecgrid/internal/energy"
	"ecgrid/internal/faults"
	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/metrics"
	"ecgrid/internal/mobility"
	"ecgrid/internal/node"
	"ecgrid/internal/protocols/gaf"
	"ecgrid/internal/protocols/span"
	"ecgrid/internal/radio"
	"ecgrid/internal/ras"
	"ecgrid/internal/routing"
	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
	"ecgrid/internal/sim"
	"ecgrid/internal/traffic"
)

// Results is everything one run measures.
type Results struct {
	Cfg scenario.Config

	// Alive is the fraction of energy-limited hosts still alive, over
	// time; Aen the per-host consumed energy as a fraction of the
	// initial charge (the paper's Eq. 2, normalized).
	Alive, Aen []struct{ T, V float64 }

	Sent, Delivered, Duplicates int
	DeliveryRate                float64
	MeanLatency, MaxLatency     float64
	// MedianLatency is the 0.5-quantile of delivery delays, exported so
	// it survives result-store serialization (internal/store) where the
	// collector's raw latency samples do not.
	MedianLatency float64

	Deaths       int
	FirstDeathAt float64 // -1 if none
	LastAlive    float64 // final alive fraction

	Radio radio.Counters
	// FrameLeaks is the pooled-frame lease imbalance after radio
	// teardown: frames minted by NewFrame that neither returned to the
	// pool nor remained in a channel structure. Always zero in a
	// leak-free build (see TestFig8aFrameLeakCanary).
	FrameLeaks int
	// PerKind splits the air usage by frame kind.
	PerKind map[string]radio.KindCount
	// Protocol aggregates per-host protocol counters by name.
	Protocol map[string]uint64

	// Recovery observables, populated when the scenario injects faults.
	// Plain fields (like MedianLatency) so they survive result-store
	// serialization. The rates and means are -1 when unmeasurable: no
	// in/out-window traffic, no replaced gateway, no post-fault delivery.
	GatewayCrashes        int
	Reelections           int
	MeanReelectionLatency float64
	MeanRouteRepairTime   float64
	InFaultDeliveryRate   float64
	OutFaultDeliveryRate  float64
	PagesDropped          uint64

	// Shard is always nil: the run executes on the serial engine only.
	//
	// Deprecated: kept so the bench module, which still reads it,
	// compiles. The next change to bench/ and BENCHMARK.json removes it.
	Shard *ShardStats `json:"-"`

	// RxCache is the receiver-scan telemetry (cache hits, misses,
	// rechecks, scan candidates). Runtime-only and excluded from the
	// canonical encoding: cached runs are byte-identical to the
	// NoRxCache reference, so stored results must not differ by cache
	// behavior.
	RxCache radio.RxCacheStats `json:"-"`

	Collector *metrics.Collector
}

// ShardStats is the type of the deprecated Results.Shard.
//
// Deprecated: removed together with Results.Shard.
type ShardStats struct {
	Windows uint64
	StallNS int64
}

// CanonicalJSON returns the results' canonical encoding: compact JSON
// with a single trailing newline. The encoding is stable — Results is a
// plain struct (fields in declaration order) whose only maps (PerKind,
// Protocol) marshal with sorted keys — so it can serve as the on-disk
// format of a content-addressed store: encode, decode, and re-encode
// produce identical bytes, which is what lets a cache hit be
// byte-identical to the run that populated it (internal/store).
func (r *Results) CanonicalJSON() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("runner: encode results: %w", err)
	}
	return append(b, '\n'), nil
}

// relaySender indirects a host's traffic entry point so CBR flows keep
// working across crash/recovery: recovery installs a fresh protocol
// instance, and the relay re-points cur at it.
type relaySender struct{ cur traffic.Sender }

func (r *relaySender) SubmitData(pkt *routing.DataPacket) {
	if r.cur != nil {
		r.cur.SubmitData(pkt)
	}
}

// Run executes the scenario and returns its results. It panics on an
// invalid configuration (catch with Validate first if the config is
// user-supplied).
func Run(cfg scenario.Config) *Results {
	res, _ := run(cfg)
	return res
}

// run is Run that also hands back the paging bus, whose work counters
// (GridProbes) are runtime-only and never part of Results.
func run(cfg scenario.Config) (*Results, *ras.Bus) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	engine := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	gen := cfg.Gen
	if gen.Empty() {
		gen = nil
	}
	area := geom.NewRect(geom.Point{}, geom.Point{X: cfg.AreaSize, Y: cfg.AreaSize})
	part := grid.NewPartition(area, cfg.GridSize)
	channel := radio.NewChannel(engine, rng, cfg.Radio)
	bus := ras.NewBus(engine, part, channel, cfg.Radio.Range, ras.DefaultLatency)
	col := metrics.New()
	if cfg.Trace != nil {
		cfg.Trace.AttachRadio(channel)
	}

	emodel := energy.PaperModel()

	type hostRec struct {
		host     *node.Host
		snd      *relaySender
		limited  bool                    // counts toward alive fraction and aen
		addStats func(map[string]uint64) // adds the live protocol's counters
		bat      *energy.Battery
		endpoint bool
		gw       func() (grid.Coord, bool) // current grid + gateway-ness (core only)
	}

	total := cfg.Hosts
	if cfg.Protocol == scenario.GAF {
		total += cfg.EndpointHosts
	}
	recs := make([]hostRec, 0, total)
	// protoStats sums every protocol instance's counters: replaced
	// instances as a crash recovery drops them, live ones at the end.
	protoStats := make(map[string]uint64)

	// deliver is every protocol's OnDeliver target: metrics first, then
	// the request/response dispatch (bound later, once traffic exists —
	// nil when the scenario has no reqresp flows).
	var rrDispatch func(*routing.DataPacket)
	deliver := func(pkt *routing.DataPacket) {
		col.PacketDelivered(pkt, engine.Now())
		if rrDispatch != nil {
			rrDispatch(pkt)
		}
	}

	// buildProtocol installs a fresh protocol instance on rec's host —
	// at construction, and again on recovery from an injected crash
	// (volatile protocol state does not survive a power cycle). Counters
	// of the instance being replaced are folded into protoStats first.
	buildProtocol := func(rec *hostRec) {
		if rec.addStats != nil {
			rec.addStats(protoStats)
		}
		h := rec.host
		rec.gw = nil
		switch cfg.Protocol {
		case scenario.ECGRID, scenario.GRID:
			opt := core.DefaultOptions()
			if cfg.Protocol == scenario.GRID {
				opt = core.GridOptions()
			}
			if cfg.ECGRIDOptions != nil {
				opt = *cfg.ECGRIDOptions
			}
			p := core.New(h, opt)
			p.OnDeliver = deliver
			p.OnGateway = col.GatewayDeclared
			h.SetProtocol(p)
			rec.snd.cur = p
			rec.gw = func() (grid.Coord, bool) { return p.Grid(), p.IsGateway() }
			rec.addStats = func(m map[string]uint64) { addCoreStats(m, &p.Stats) }
		case scenario.SPAN:
			p := span.New(h, span.DefaultOptions())
			p.OnDeliver = deliver
			h.SetProtocol(p)
			rec.snd.cur = p
			rec.addStats = func(m map[string]uint64) { addSpanStats(m, &p.Stats) }
		case scenario.GAF, scenario.AODV:
			opt := gaf.DefaultOptions()
			if cfg.GAFOptions != nil {
				opt = *cfg.GAFOptions
			}
			var p *gaf.Protocol
			if cfg.Protocol == scenario.AODV {
				p = gaf.NewAODV(h, opt)
			} else {
				p = gaf.New(h, opt, rec.endpoint)
			}
			p.OnDeliver = deliver
			h.SetProtocol(p)
			rec.snd.cur = p
			rec.addStats = func(m map[string]uint64) { addGAFStats(m, &p.Stats) }
		}
	}

	place := func(i int) geom.Point {
		return geom.Point{
			X: rng.Uniform(sim.StreamPlacement, 0, cfg.AreaSize),
			Y: rng.Uniform(sim.StreamPlacement, 0, cfg.AreaSize),
		}
	}
	if gen != nil && gen.Deployment != nil {
		place = scengen.NewPlacer(gen.Deployment, area, total, rng)
	}
	var mobFactory *scengen.MobilityFactory
	if gen != nil && gen.Mobility != nil {
		mobFactory = scengen.NewMobilityFactory(gen.Mobility, area, cfg.MaxSpeedMS, cfg.PauseTime, rng)
	}

	for i := 0; i < total; i++ {
		endpoint := cfg.Protocol == scenario.GAF && i >= cfg.Hosts
		start := place(i)
		var mob mobility.Model
		if mobFactory != nil {
			mob = mobFactory.Model(i, start)
		} else {
			switch cfg.Mobility {
			case "direction":
				// Epoch sized so direction changes come at waypoint-like
				// intervals for the area.
				epoch := cfg.AreaSize / (2 * cfg.MaxSpeedMS)
				mob = mobility.NewRandomDirection(area, start, cfg.MaxSpeedMS, epoch,
					cfg.PauseTime, rng.Stream(fmt.Sprintf(sim.StreamMobility, i)))
			default:
				mob = mobility.NewRandomWaypoint(area, start, cfg.MaxSpeedMS, cfg.PauseTime,
					rng.Stream(fmt.Sprintf(sim.StreamMobility, i)))
			}
		}
		var bat *energy.Battery
		if endpoint {
			bat = energy.NewInfiniteBattery(emodel)
		} else {
			bat = energy.NewBattery(emodel, cfg.InitialEnergyJ)
		}
		h := node.New(node.Config{
			ID: hostid.ID(i), Engine: engine, RNG: rng, Channel: channel,
			Bus: bus, Partition: part, Mobility: mob, Battery: bat,
		})
		h.Died = func(id hostid.ID, at float64) { col.HostDied(at) }

		recs = append(recs, hostRec{
			host: h, snd: &relaySender{}, limited: !endpoint, bat: bat, endpoint: endpoint,
		})
		buildProtocol(&recs[len(recs)-1])
	}
	for i := range recs {
		recs[i].host.Start()
	}

	// Propagation map: obstacles shrink the effective radio range of
	// any transmission whose sight line crosses them. Pure geometry —
	// no RNG draw — so runs with and without a map consume identical
	// randomness from every stream.
	if gen != nil && gen.Propagation != nil {
		obstacles := scengen.NewObstacleMap(gen.Propagation)
		baseRange := cfg.Radio.Range
		channel.Interceptor = func(f *radio.Frame, from, to geom.Point) bool {
			return obstacles.Deliverable(baseRange, from, to)
		}
	}

	// Fault injection: translate the plan into per-host targets and
	// channel/bus hooks. Everything runs inside engine events, so the
	// determinism contract holds with a plan active.
	if plan := cfg.Faults; plan != nil && !plan.Empty() {
		ws := plan.Windows(cfg.Duration)
		mws := make([]metrics.Window, len(ws))
		for i, w := range ws {
			mws[i] = metrics.Window{From: w.From, Until: w.Until}
		}
		col.SetFaultWindows(mws)

		targets := make([]faults.Target, len(recs))
		for i := range recs {
			rec := &recs[i]
			h := rec.host
			targets[i] = faults.Target{
				Crash: func() {
					if rec.gw != nil && !h.Dead() && !h.Crashed() {
						if g, isGW := rec.gw(); isGW {
							col.GatewayCrashed(g, engine.Now())
						}
					}
					h.Crash()
				},
				Recover: func() {
					if h.Dead() || !h.Crashed() {
						return
					}
					buildProtocol(rec) // cold rejoin: all volatile state lost
					h.Recover()
				},
				Shock: h.DrainBattery,
				IsGateway: func() bool {
					if rec.gw == nil || h.Dead() || h.Crashed() {
						return false
					}
					_, isGW := rec.gw()
					return isGW
				},
				SetGPSNoise: h.SetGPSNoise,
			}
		}
		inj := faults.NewInjector(engine, rng, plan, targets)
		inj.OnFault = func(kind string, host int, at float64) {
			switch kind {
			case "crash", "shock", "jam-on", "paging-on", "gps-on":
				col.FaultInjected(at)
			}
		}
		// Compose with an obstacle map already installed above: the
		// geometric veto runs first, then the jamming draw (in that
		// order, so a shadowed reception never consumes jam randomness).
		prev := channel.Interceptor
		channel.Interceptor = func(f *radio.Frame, from, to geom.Point) bool {
			if prev != nil && !prev(f, from, to) {
				return false
			}
			return !inj.FrameJammed(from, to)
		}
		bus.DropHook = func(hostid.ID) bool { return inj.PageDropped() }
		inj.Start()
	}

	// Traffic: flow endpoints. Under GAF Model 1 the flows run between
	// the infinite-energy endpoint hosts; under Model 2 (ECGRID/GRID)
	// sources and destinations are random energy-limited hosts. A
	// generator traffic axis reshapes each flow (bursty on/off or
	// request/response) but keeps the endpoint draws and phases on the
	// same streams, so only the emission pattern changes.
	type stopper interface{ Stop() }
	flows := make([]stopper, 0, cfg.Flows)
	var rrs []*traffic.ReqResp
	for f := 0; f < cfg.Flows; f++ {
		var srcIdx, dstIdx int
		if cfg.Protocol == scenario.GAF {
			srcIdx = cfg.Hosts + f%cfg.EndpointHosts
			dstIdx = cfg.Hosts + (f+cfg.EndpointHosts/2)%cfg.EndpointHosts
			if dstIdx == srcIdx {
				dstIdx = cfg.Hosts + (srcIdx-cfg.Hosts+1)%cfg.EndpointHosts
			}
		} else {
			srcIdx = rng.Intn(sim.StreamFlows, total)
			dstIdx = rng.Intn(sim.StreamFlows, total)
			for dstIdx == srcIdx {
				dstIdx = rng.Intn(sim.StreamFlows, total)
			}
		}
		src, dst := recs[srcIdx], recs[dstIdx]
		onSend := func(pkt *routing.DataPacket) { col.PacketSent(pkt) }
		srcHost, dstHost := src.host, dst.host
		srcAlive := func() bool { return !srcHost.Dead() && !srcHost.Crashed() }
		phase := cfg.TrafficStart + rng.Uniform(sim.StreamFlowPhase, 0, 1/cfg.RatePerFlow)

		var shape *scengen.Traffic
		if gen != nil {
			shape = gen.Traffic
		}
		switch {
		case shape != nil && shape.Kind == scengen.TrafficOnOff:
			flow := &traffic.OnOff{
				Flow: f, Src: srcHost.ID(), Dst: dstHost.ID(),
				Rate: cfg.RatePerFlow, Bytes: cfg.PacketBytes,
				MeanOnS: shape.MeanOnS, MeanOffS: shape.MeanOffS,
			}
			flow.OnSend = onSend
			flow.Gate = srcAlive
			flow.Start(engine, src.snd, rng, phase)
			flows = append(flows, flow)
		case shape != nil && shape.Kind == scengen.TrafficReqResp:
			respBytes := shape.RespBytes
			if respBytes == 0 {
				respBytes = cfg.PacketBytes
			}
			// Response flows occupy ids Flows..2*Flows-1 so the metrics
			// keep the two directions of a pair distinct.
			rr := &traffic.ReqResp{
				Flow: f, RespFlow: cfg.Flows + f,
				A: srcHost.ID(), B: dstHost.ID(),
				Interval: 1 / cfg.RatePerFlow, Bytes: cfg.PacketBytes,
				RespBytes: respBytes, RespDelayS: shape.RespDelayS,
			}
			rr.OnSend = onSend
			rr.GateA = srcAlive
			rr.GateB = func() bool { return !dstHost.Dead() && !dstHost.Crashed() }
			rr.Start(engine, src.snd, dst.snd, phase)
			rrs = append(rrs, rr)
			flows = append(flows, rr)
		default:
			flow := &traffic.CBR{
				Flow: f, Src: srcHost.ID(), Dst: dstHost.ID(),
				Rate: cfg.RatePerFlow, Bytes: cfg.PacketBytes,
			}
			flow.OnSend = onSend
			flow.Gate = srcAlive
			flow.Start(engine, src.snd, phase)
			flows = append(flows, flow)
		}
	}
	if len(rrs) > 0 {
		rrDispatch = func(pkt *routing.DataPacket) {
			for _, rr := range rrs {
				rr.Delivered(pkt)
			}
		}
	}

	// Metrics sampling.
	limited := 0
	for _, r := range recs {
		if r.limited {
			limited++
		}
	}
	sample := func() {
		now := engine.Now()
		alive := 0
		consumed := 0.0
		for _, r := range recs {
			if !r.limited {
				continue
			}
			if !r.host.Dead() && !r.host.Crashed() {
				alive++
			}
			consumed += r.bat.Consumed(now)
		}
		col.SampleAlive(now, float64(alive)/float64(limited))
		col.SampleAen(now, consumed/(float64(limited)*cfg.InitialEnergyJ))
	}
	sample()
	sampler := sim.NewTicker(engine, cfg.SampleEvery, 0, sample)

	engine.Run(cfg.Duration)
	sampler.Stop()
	for _, f := range flows {
		f.Stop()
	}
	sample()

	// Tear down the radio: queued and in-flight frames go back to the
	// pool, after which every pooled frame must be accounted for. A
	// nonzero remainder means some component minted a frame and lost it —
	// the runtime counterpart of the framelease analyzer's static claim.
	channel.Shutdown()
	frameLeaks := channel.OutstandingFrames()

	// Collect results.
	res := &Results{
		Cfg:           cfg,
		Sent:          col.Sent(),
		Delivered:     col.Delivered(),
		Duplicates:    col.Duplicates(),
		DeliveryRate:  col.DeliveryRate(),
		MeanLatency:   col.MeanLatencySeconds(),
		MaxLatency:    col.MaxLatencySeconds(),
		MedianLatency: col.LatencyPercentile(0.5),
		Deaths:        col.Deaths(),
		FirstDeathAt:  col.FirstDeathAt(),
		LastAlive:     col.Alive.Last(),
		Radio:         channel.Counters(),
		PerKind:       channel.PerKind(),
		FrameLeaks:    frameLeaks,
		Protocol:      protoStats,

		GatewayCrashes:        col.GatewayCrashes(),
		Reelections:           len(col.ReelectionLatencies()),
		MeanReelectionLatency: col.MeanReelectionLatency(),
		MeanRouteRepairTime:   col.MeanRouteRepairTime(),
		InFaultDeliveryRate:   col.InWindowDeliveryRate(),
		OutFaultDeliveryRate:  col.OutWindowDeliveryRate(),
		PagesDropped:          bus.PagesDropped,

		RxCache:   channel.RxCacheStats(),
		Collector: col,
	}
	for _, p := range col.Alive.Points {
		res.Alive = append(res.Alive, struct{ T, V float64 }{p.T, p.V})
	}
	for _, p := range col.Aen.Points {
		res.Aen = append(res.Aen, struct{ T, V float64 }{p.T, p.V})
	}
	for _, r := range recs {
		if r.addStats != nil {
			r.addStats(protoStats)
		}
	}
	return res, bus
}

func addCoreStats(m map[string]uint64, s *core.Stats) {
	m["hellos"] += s.HellosSent
	m["rreqs"] += s.RREQsSent
	m["rreps"] += s.RREPsSent
	m["rerrs"] += s.RERRsSent
	m["retires"] += s.RetiresSent
	m["transfers"] += s.TransfersSent
	m["acqs"] += s.ACQsSent
	m["leaves"] += s.LeavesSent
	m["fwd"] += s.DataForwarded
	m["delivered"] += s.DataDelivered
	m["dropped"] += s.DataDropped
	m["d_misdirect"] += s.DropMisdirect
	m["d_noroute"] += s.DropNoRoute
	m["d_discovery"] += s.DropDiscovery
	m["d_unreach"] += s.DropUnreach
	m["d_expired"] += s.DropExpired
	m["pages"] += s.PagesSent
	m["gridpages"] += s.GridPagesSent
	m["elections"] += s.ElectionsRun
	m["gateways"] += s.BecameGateway
	m["nogateway"] += s.NoGatewayEvnts
	m["sleeps"] += s.SleepsEntered
}

func addSpanStats(m map[string]uint64, s *span.Stats) {
	m["hellos"] += s.HellosSent
	m["coords"] += s.CoordAnnounces
	m["withdrawals"] += s.Withdrawals
	m["rreqs"] += s.RREQsSent
	m["rreps"] += s.RREPsSent
	m["fwd"] += s.DataForwarded
	m["delivered"] += s.DataDelivered
	m["dropped"] += s.DataDropped
	m["sleeps"] += s.SleepsEntered
}

func addGAFStats(m map[string]uint64, s *gaf.Stats) {
	m["discoveries"] += s.DiscoveriesSent
	m["rreqs"] += s.RREQsSent
	m["rreps"] += s.RREPsSent
	m["rerrs"] += s.RERRsSent
	m["fwd"] += s.DataForwarded
	m["delivered"] += s.DataDelivered
	m["dropped"] += s.DataDropped
	m["sleeps"] += s.SleepsEntered
	m["actives"] += s.ActivePeriods
}
