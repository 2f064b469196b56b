package faults

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"ecgrid/internal/geom"
	"ecgrid/internal/sim"
)

// Target is the injector's handle on one host. The runner supplies
// closures so the faults package stays decoupled from the node and
// protocol layers (no import cycle, and tests can inject into fakes).
// Every closure must tolerate being called on an already-dead or
// already-crashed host (no-op).
type Target struct {
	// Crash powers the host off: detach from channel and RAS, drop
	// protocol state.
	Crash func()
	// Recover powers the host back on with a cold-started protocol.
	Recover func()
	// Shock drains the given fraction of the host's full charge.
	Shock func(fraction float64)
	// IsGateway reports whether the host currently serves as a gateway
	// (false or nil for protocols without the concept).
	IsGateway func() bool
	// SetGPSNoise installs (or, with nil, removes) a position-noise
	// function on the host's GPS.
	SetGPSNoise func(fn func(t float64) (dx, dy float64))
}

// Injector schedules a Plan's events through the engine and answers the
// per-frame and per-page questions the radio and RAS hooks ask. All
// methods run inside engine events (single-threaded).
type Injector struct {
	engine  *sim.Engine
	rng     *sim.RNG
	plan    *Plan
	targets []Target

	// OnFault, if set, observes every fault transition: kind is one of
	// "crash", "recover", "shock", "jam-on", "jam-off", "paging-on",
	// "paging-off", "gps-on", "gps-off"; host is the affected host index
	// or -1 for network-wide events.
	OnFault func(kind string, host int, at float64)
}

// NewInjector builds an injector for the given validated plan. The
// targets slice is indexed by host index; plan validation guarantees all
// referenced indices are in range.
func NewInjector(engine *sim.Engine, rng *sim.RNG, plan *Plan, targets []Target) *Injector {
	if engine == nil || rng == nil || plan == nil {
		panic("faults: nil engine, rng, or plan")
	}
	return &Injector{engine: engine, rng: rng, plan: plan, targets: targets}
}

func (in *Injector) fault(kind string, host int) {
	if in.OnFault != nil {
		in.OnFault(kind, host, in.engine.Now())
	}
}

// Start schedules every event of the plan. Call once, before the run.
func (in *Injector) Start() {
	for i := range in.plan.Crashes {
		c := in.plan.Crashes[i]
		in.engine.At(c.At, func() { in.fireCrash(c) })
	}
	for i := range in.plan.Shocks {
		s := in.plan.Shocks[i]
		in.engine.At(s.At, func() {
			if sh := in.targets[s.Host].Shock; sh != nil {
				sh(s.Fraction)
			}
			in.fault("shock", s.Host)
		})
	}
	// Jams and paging loss are window-checked on each frame/page; the
	// scheduled events only announce the transitions (trace, metrics).
	for i := range in.plan.Jams {
		j := in.plan.Jams[i]
		in.engine.At(j.From, func() { in.fault("jam-on", -1) })
		in.engine.At(j.Until, func() { in.fault("jam-off", -1) })
	}
	for i := range in.plan.PagingLoss {
		l := in.plan.PagingLoss[i]
		in.engine.At(l.From, func() { in.fault("paging-on", -1) })
		in.engine.At(l.Until, func() { in.fault("paging-off", -1) })
	}
	for i := range in.plan.GPSErrors {
		g := in.plan.GPSErrors[i]
		in.engine.At(g.From, func() { in.gpsOn(g) })
		in.engine.At(g.Until, func() { in.gpsOff(g) })
	}
}

// fireCrash resolves the crash target (fixed index, or the first current
// gateway for AnyGateway) and powers it off, scheduling recovery if the
// crash has a downtime.
func (in *Injector) fireCrash(c Crash) {
	idx := c.Host
	if c.AnyGateway {
		for j := range in.targets {
			if g := in.targets[j].IsGateway; g != nil && g() {
				idx = j
				break
			}
		}
	}
	t := in.targets[idx]
	if t.Crash != nil {
		t.Crash()
	}
	in.fault("crash", idx)
	if c.Downtime > 0 && t.Recover != nil {
		in.engine.Schedule(c.Downtime, func() {
			t.Recover()
			in.fault("recover", idx)
		})
	}
}

// gpsHosts returns the host indices a GPSError applies to.
func (in *Injector) gpsHosts(g GPSError) []int {
	if len(g.Hosts) > 0 {
		return g.Hosts
	}
	all := make([]int, len(in.targets))
	for i := range all {
		all[i] = i
	}
	return all
}

func (in *Injector) gpsOn(g GPSError) {
	seed := in.rng.Seed()
	for _, h := range in.gpsHosts(g) {
		if set := in.targets[h].SetGPSNoise; set != nil {
			host := h
			set(func(t float64) (dx, dy float64) {
				return gpsOffset(seed, host, g.MaxMeters, g.Resample, t)
			})
		}
	}
	in.fault("gps-on", -1)
}

func (in *Injector) gpsOff(g GPSError) {
	for _, h := range in.gpsHosts(g) {
		if set := in.targets[h].SetGPSNoise; set != nil {
			set(nil)
		}
	}
	in.fault("gps-off", -1)
}

// gpsOffset derives a bounded, piecewise-constant position error as a
// pure hash of (seed, host, epoch): no RNG stream state is consumed, so
// GPS queries — whose count varies with protocol decisions — can never
// perturb any other random stream.
func gpsOffset(seed int64, host int, maxM, resample, t float64) (dx, dy float64) {
	var epoch int64
	if resample > 0 {
		epoch = int64(math.Floor(t / resample))
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(host)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(epoch))
	h := fnv.New64a()
	_, _ = h.Write(buf[:])
	sum := h.Sum64()
	u1 := float64(uint32(sum>>32)) / float64(1<<32)
	u2 := float64(uint32(sum)) / float64(1<<32)
	return (2*u1 - 1) * maxM, (2*u2 - 1) * maxM
}

// reachGuard (meters) pads JamReaches' square against rounding, as the
// radio's drift bounds are padded.
const reachGuard = 1e-3

// JamReaches reports whether some jam is active now, has a positive
// DropProb and has a Region intersecting the closed square
// from ± (r + 1 mm). When it reports false, FrameJammed(from, to)
// returns false without a draw for every receiver within r of from:
// neither endpoint can lie in an active region. The radio channel asks
// it once per frame (radio.Channel.InterceptReach).
func (in *Injector) JamReaches(from geom.Point, r float64) bool {
	now := in.engine.Now()
	h := r + reachGuard
	for _, j := range in.plan.Jams {
		if now < j.From || now >= j.Until || !(j.DropProb > 0) {
			continue
		}
		g := j.Region
		if g.MinX <= from.X+h && g.MaxX >= from.X-h && g.MinY <= from.Y+h && g.MaxY >= from.Y-h {
			return true
		}
	}
	return false
}

// FrameJammed reports whether a frame transmitted from `from` toward a
// receiver at `to` is killed by an active jamming region at the current
// simulation time. The radio channel consults it once per in-range
// receiver of a frame JamReaches cannot rule out (the BruteForce
// reference, once per in-range receiver of every frame); each
// consultation is an independent Bernoulli draw on the "faults.jam"
// stream (no draw when the answer is certain).
func (in *Injector) FrameJammed(from, to geom.Point) bool {
	now := in.engine.Now()
	for _, j := range in.plan.Jams {
		if now < j.From || now >= j.Until {
			continue
		}
		if !j.Region.Contains(from.X, from.Y) && !j.Region.Contains(to.X, to.Y) {
			continue
		}
		if j.DropProb >= 1 {
			return true
		}
		if j.DropProb > 0 && in.rng.Uniform(sim.StreamFaultJam, 0, 1) < j.DropProb {
			return true
		}
	}
	return false
}

// PageDropped reports whether one RAS wakeup delivery is lost to an
// active paging-loss fault at the current simulation time. The bus
// consults it once per wakeup it would otherwise deliver.
func (in *Injector) PageDropped() bool {
	now := in.engine.Now()
	for _, l := range in.plan.PagingLoss {
		if now < l.From || now >= l.Until {
			continue
		}
		if l.DropProb >= 1 {
			return true
		}
		if l.DropProb > 0 && in.rng.Uniform(sim.StreamFaultPaging, 0, 1) < l.DropProb {
			return true
		}
	}
	return false
}
