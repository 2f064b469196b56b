package faults

import (
	"math"
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/sim"
)

// fakeTarget records injector calls against one host index.
type fakeTarget struct {
	crashes  []float64
	recovers []float64
	shocks   []float64
	gateway  bool
	noise    func(t float64) (dx, dy float64)
}

func (f *fakeTarget) target(e *sim.Engine) Target {
	return Target{
		Crash:       func() { f.crashes = append(f.crashes, e.Now()) },
		Recover:     func() { f.recovers = append(f.recovers, e.Now()) },
		Shock:       func(fr float64) { f.shocks = append(f.shocks, fr) },
		IsGateway:   func() bool { return f.gateway },
		SetGPSNoise: func(fn func(t float64) (dx, dy float64)) { f.noise = fn },
	}
}

func newTestInjector(plan *Plan, n int) (*sim.Engine, []*fakeTarget, *Injector) {
	e := sim.NewEngine()
	fakes := make([]*fakeTarget, n)
	targets := make([]Target, n)
	for i := range fakes {
		fakes[i] = &fakeTarget{}
		targets[i] = fakes[i].target(e)
	}
	return e, fakes, NewInjector(e, sim.NewRNG(1), plan, targets)
}

func TestCrashAndRecoverSchedule(t *testing.T) {
	plan := &Plan{Crashes: []Crash{{Host: 1, At: 10, Downtime: 5}}}
	e, fakes, inj := newTestInjector(plan, 3)
	var events []string
	inj.OnFault = func(kind string, host int, at float64) {
		events = append(events, kind)
		if kind == "crash" && host != 1 {
			t.Errorf("crash host = %d, want 1", host)
		}
	}
	inj.Start()
	e.Run(100)
	if len(fakes[1].crashes) != 1 || fakes[1].crashes[0] != 10 {
		t.Fatalf("crashes = %v, want [10]", fakes[1].crashes)
	}
	if len(fakes[1].recovers) != 1 || fakes[1].recovers[0] != 15 {
		t.Fatalf("recovers = %v, want [15]", fakes[1].recovers)
	}
	if len(fakes[0].crashes)+len(fakes[2].crashes) != 0 {
		t.Fatal("wrong host crashed")
	}
	if len(events) != 2 || events[0] != "crash" || events[1] != "recover" {
		t.Fatalf("events = %v", events)
	}
}

func TestPermanentCrashNeverRecovers(t *testing.T) {
	plan := &Plan{Crashes: []Crash{{Host: 0, At: 10}}}
	e, fakes, inj := newTestInjector(plan, 1)
	inj.Start()
	e.Run(100)
	if len(fakes[0].crashes) != 1 || len(fakes[0].recovers) != 0 {
		t.Fatalf("crashes=%v recovers=%v", fakes[0].crashes, fakes[0].recovers)
	}
}

func TestAnyGatewayPicksFirstGateway(t *testing.T) {
	plan := &Plan{Crashes: []Crash{{Host: 0, AnyGateway: true, At: 10, Downtime: 1}}}
	e, fakes, inj := newTestInjector(plan, 3)
	fakes[2].gateway = true
	inj.Start()
	e.Run(20)
	if len(fakes[2].crashes) != 1 {
		t.Fatalf("gateway host not crashed: %+v", fakes[2])
	}
	if len(fakes[0].crashes) != 0 {
		t.Fatal("fallback host crashed although a gateway existed")
	}
}

func TestAnyGatewayFallsBackToFixedHost(t *testing.T) {
	plan := &Plan{Crashes: []Crash{{Host: 1, AnyGateway: true, At: 10, Downtime: 1}}}
	e, fakes, inj := newTestInjector(plan, 3)
	inj.Start()
	e.Run(20)
	if len(fakes[1].crashes) != 1 {
		t.Fatalf("fallback host not crashed: %+v", fakes[1])
	}
}

func TestShockDelivered(t *testing.T) {
	plan := &Plan{Shocks: []BatteryShock{{Host: 2, At: 5, Fraction: 0.4}}}
	e, fakes, inj := newTestInjector(plan, 3)
	inj.Start()
	e.Run(10)
	if len(fakes[2].shocks) != 1 || fakes[2].shocks[0] != 0.4 {
		t.Fatalf("shocks = %v, want [0.4]", fakes[2].shocks)
	}
}

func TestFrameJammed(t *testing.T) {
	region := Region{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200}
	plan := &Plan{Jams: []Jam{{Region: region, From: 10, Until: 20, DropProb: 1}}}
	e, _, inj := newTestInjector(plan, 1)
	inj.Start()
	inside := geom.Point{X: 150, Y: 150}
	outside := geom.Point{X: 500, Y: 500}

	check := func(at float64, from, to geom.Point, want bool, what string) {
		e.At(at, func() {
			if got := inj.FrameJammed(from, to); got != want {
				t.Errorf("%s at t=%g: jammed=%v, want %v", what, at, got, want)
			}
		})
	}
	check(5, inside, outside, false, "before window")
	check(15, inside, outside, true, "sender in region")
	check(16, outside, inside, true, "receiver in region")
	check(17, outside, outside, false, "both outside region")
	check(25, inside, outside, false, "after window")
	e.Run(30)
}

func TestFrameJammedProbabilistic(t *testing.T) {
	region := Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	plan := &Plan{Jams: []Jam{{Region: region, From: 0, Until: 100, DropProb: 0.5}}}
	e, _, inj := newTestInjector(plan, 1)
	p := geom.Point{X: 50, Y: 50}
	jammed := 0
	const trials = 1000
	e.At(1, func() {
		for i := 0; i < trials; i++ {
			if inj.FrameJammed(p, p) {
				jammed++
			}
		}
	})
	e.Run(10)
	if jammed < trials/3 || jammed > 2*trials/3 {
		t.Fatalf("jammed %d of %d at p=0.5", jammed, trials)
	}
}

func TestPageDropped(t *testing.T) {
	plan := &Plan{PagingLoss: []PagingLoss{{From: 10, Until: 20, DropProb: 1}}}
	e, _, inj := newTestInjector(plan, 1)
	check := func(at float64, want bool) {
		e.At(at, func() {
			if got := inj.PageDropped(); got != want {
				t.Errorf("PageDropped at t=%g = %v, want %v", at, got, want)
			}
		})
	}
	check(5, false)
	check(15, true)
	check(25, false)
	e.Run(30)
}

func TestGPSNoiseInstalledAndRemoved(t *testing.T) {
	plan := &Plan{GPSErrors: []GPSError{{From: 10, Until: 20, MaxMeters: 50, Resample: 5, Hosts: []int{1}}}}
	e, fakes, inj := newTestInjector(plan, 3)
	inj.Start()
	e.At(15, func() {
		if fakes[1].noise == nil {
			t.Error("noise not installed during window")
		}
		if fakes[0].noise != nil || fakes[2].noise != nil {
			t.Error("noise installed on unlisted hosts")
		}
	})
	e.Run(30)
	if fakes[1].noise != nil {
		t.Fatal("noise not removed after window")
	}
}

func TestGPSNoiseAppliesToAllHostsByDefault(t *testing.T) {
	plan := &Plan{GPSErrors: []GPSError{{From: 10, Until: 20, MaxMeters: 50}}}
	e, fakes, inj := newTestInjector(plan, 2)
	inj.Start()
	e.At(15, func() {
		if fakes[0].noise == nil || fakes[1].noise == nil {
			t.Error("noise missing on some host")
		}
	})
	e.Run(30)
}

func TestGPSOffsetProperties(t *testing.T) {
	const maxM, resample = 50.0, 20.0
	for host := 0; host < 5; host++ {
		for _, tm := range []float64{0, 7, 19.9, 20, 500} {
			dx, dy := gpsOffset(42, host, maxM, resample, tm)
			if math.Abs(dx) > maxM || math.Abs(dy) > maxM {
				t.Fatalf("offset (%g, %g) exceeds bound %g", dx, dy, maxM)
			}
		}
	}
	// Piecewise constant within an epoch, pure in its inputs.
	ax, ay := gpsOffset(42, 1, maxM, resample, 3)
	bx, by := gpsOffset(42, 1, maxM, resample, 19)
	if ax != bx || ay != by {
		t.Fatal("offset changed within one resample epoch")
	}
	cx, cy := gpsOffset(42, 1, maxM, resample, 21)
	if ax == cx && ay == cy {
		t.Fatal("offset did not change across epochs")
	}
	// Resample 0: one fixed offset for the whole run.
	dx1, dy1 := gpsOffset(42, 1, maxM, 0, 3)
	dx2, dy2 := gpsOffset(42, 1, maxM, 0, 1e6)
	if dx1 != dx2 || dy1 != dy2 {
		t.Fatal("resample 0 should freeze the offset")
	}
	// Different hosts and seeds decorrelate.
	ex, ey := gpsOffset(42, 2, maxM, resample, 3)
	if ax == ex && ay == ey {
		t.Fatal("hosts share an offset")
	}
	fx, fy := gpsOffset(43, 1, maxM, resample, 3)
	if ax == fx && ay == fy {
		t.Fatal("seeds share an offset")
	}
}

func TestNewInjectorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil plan did not panic")
		}
	}()
	NewInjector(sim.NewEngine(), sim.NewRNG(1), nil, nil)
}

// TestJamReaches: JamReaches is true exactly when a jam is active now,
// has a positive DropProb and its region meets the closed square
// from ± (r + reachGuard), a touching edge included.
func TestJamReaches(t *testing.T) {
	const r = 250.0
	from := geom.Point{X: 1000, Y: 1000}
	h := r + reachGuard
	hi := from.X + h
	touching := Region{MinX: hi, MinY: 900, MaxX: hi + 50, MaxY: 1100}
	clear := Region{MinX: math.Nextafter(hi, math.Inf(1)), MinY: 900, MaxX: hi + 50, MaxY: 1100}
	lo := from.Y - h
	below := Region{MinX: 900, MinY: lo - 50, MaxX: 1100, MaxY: lo}
	for _, tc := range []struct {
		name string
		jam  Jam
		at   float64
		want bool
	}{
		{"touches east", Jam{Region: touching, From: 10, Until: 20, DropProb: 0.5}, 15, true},
		{"touches south", Jam{Region: below, From: 10, Until: 20, DropProb: 1}, 15, true},
		{"clear of east", Jam{Region: clear, From: 10, Until: 20, DropProb: 1}, 15, false},
		{"before window", Jam{Region: touching, From: 10, Until: 20, DropProb: 1}, 9, false},
		{"window opens", Jam{Region: touching, From: 10, Until: 20, DropProb: 1}, 10, true},
		{"window closed", Jam{Region: touching, From: 10, Until: 20, DropProb: 1}, 20, false},
		{"zero drop", Jam{Region: touching, From: 10, Until: 20, DropProb: 0}, 15, false},
	} {
		e, _, inj := newTestInjector(&Plan{Jams: []Jam{tc.jam}}, 1)
		var got bool
		e.At(tc.at, func() { got = inj.JamReaches(from, r) })
		e.Run(30)
		if got != tc.want {
			t.Errorf("%s: JamReaches at t=%g = %v, want %v", tc.name, tc.at, got, tc.want)
		}
	}
}

// TestJamReachFalseMeansNoDraw: when JamReaches rules a sender out,
// FrameJammed is false for every receiver within r, and the "faults.jam"
// stream is left where it was: the next draw equals a fresh stream's
// first. Jams cover a region near the senders, one with DropProb 0 over
// them, and one outside its window.
func TestJamReachFalseMeansNoDraw(t *testing.T) {
	const r = 250.0
	plan := &Plan{Jams: []Jam{
		{Region: Region{MinX: 2000, MinY: 2000, MaxX: 2400, MaxY: 2400}, From: 0, Until: 100, DropProb: 0.5},
		{Region: Region{MinX: 0, MinY: 0, MaxX: 5000, MaxY: 5000}, From: 0, Until: 100, DropProb: 0},
		{Region: Region{MinX: 0, MinY: 0, MaxX: 5000, MaxY: 5000}, From: 200, Until: 300, DropProb: 1},
	}}
	e := sim.NewEngine()
	rng := sim.NewRNG(3)
	inj := NewInjector(e, rng, plan, nil)
	pick := sim.NewRNG(11)
	out, in := 0, 0
	e.At(1, func() {
		for i := 0; i < 2000; i++ {
			from := geom.Point{X: pick.Uniform("x", 1000, 3400), Y: pick.Uniform("y", 1000, 3400)}
			if inj.JamReaches(from, r) {
				in++
				continue
			}
			out++
			for k := 0; k < 8; k++ {
				a := pick.Uniform("angle", 0, 2*math.Pi)
				to := geom.Point{X: from.X + r*math.Cos(a), Y: from.Y + r*math.Sin(a)}
				if from.Dist2(to) <= r*r && inj.FrameJammed(from, to) {
					t.Fatalf("sender %v out of reach, yet the frame to %v was jammed", from, to)
				}
			}
		}
	})
	e.Run(10)
	if out == 0 || in == 0 {
		t.Fatalf("%d senders out of reach, %d in reach: want both", out, in)
	}
	if got, want := rng.Uniform(sim.StreamFaultJam, 0, 1), sim.NewRNG(3).Uniform(sim.StreamFaultJam, 0, 1); got != want {
		t.Fatalf("faults.jam stream moved: next draw %v, a fresh stream's first %v", got, want)
	}
}
