package mobility

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ecgrid/internal/geom"
)

// TestLegMemoMatchesFreshModel pins the legAt memo down: a model that
// has answered thousands of clustered and interleaved queries must
// report exactly the positions, velocities and turn times a fresh model
// (same seed, so identical legs) reports when asked cold. Any memo
// staleness would surface as a bit-level difference.
func TestLegMemoMatchesFreshModel(t *testing.T) {
	// Query times deliberately jump backward and forward so the memo
	// misses, re-seeks, and re-hits across leg boundaries. Every 100
	// steps a far jump ahead grows the leg slice past its capacity, so
	// the memo hits that follow come after a reallocation.
	times := make([]float64, 0, 4100)
	r := rand.New(rand.NewSource(99))
	base := 0.0
	for i := 0; i < 1000; i++ {
		base += r.Float64() * 2
		times = append(times, base, base+0.01, math.Max(0, base-30), base)
		if i%100 == 99 {
			times = append(times, base+float64(i)*5, base, base+0.02)
		}
	}

	cases := []struct {
		name   string
		mk     func() Model
		legCap func(Model) int
	}{
		{"waypoint",
			func() Model { return newRWP(7, 12, 3) },
			func(m Model) int { return cap(m.(*RandomWaypoint).legs) }},
		{"direction",
			func() Model {
				return NewRandomDirection(testArea(), geom.Point{X: 500, Y: 500}, 8, 15, 2, rand.New(rand.NewSource(11)))
			},
			func(m Model) int { return cap(m.(*RandomDirection).legs) }},
		{"manhattan",
			func() Model {
				return NewManhattan(testArea(), geom.Point{X: 437, Y: 291}, 100, 12, 3, rand.New(rand.NewSource(13)))
			},
			func(m Model) int { return cap(m.(*Manhattan).legs) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			warm := c.mk()
			reallocs, lastCap := 0, c.legCap(warm)
			for _, u := range times {
				cold := c.mk() // no memo, no cached legs beyond the first
				if got, want := warm.Position(u), cold.Position(u); got != want {
					t.Fatalf("Position(%v): memoized %v != fresh %v", u, got, want)
				}
				if got, want := warm.Velocity(u), cold.Velocity(u); got != want {
					t.Fatalf("Velocity(%v): memoized %v != fresh %v", u, got, want)
				}
				if got, want := warm.NextTurn(u), cold.NextTurn(u); got != want {
					t.Fatalf("NextTurn(%v): memoized %v != fresh %v", u, got, want)
				}
				if n := c.legCap(warm); n != lastCap {
					reallocs, lastCap = reallocs+1, n
				}
			}
			if reallocs < 3 {
				t.Fatalf("leg slice reallocated %d times, want at least 3", reallocs)
			}
		})
	}
}

func TestNextRectExitStationary(t *testing.T) {
	rect := geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 10})
	inside := Stationary{At: geom.Point{X: 5, Y: 5}}
	if got := NextRectExit(inside, 3, rect, 1e6); !math.IsInf(got, 1) {
		t.Errorf("stationary inside: exit = %v, want +Inf", got)
	}
	outside := Stationary{At: geom.Point{X: 50, Y: 5}}
	if got := NextRectExit(outside, 3, rect, 1e6); got != 3 {
		t.Errorf("stationary outside: exit = %v, want the query time 3", got)
	}
	if got := NextRectExit(&inside, 3, rect, 1e6); !math.IsInf(got, 1) {
		t.Errorf("*Stationary inside: exit = %v, want +Inf", got)
	}
}

// walkModels are the models the NextRectExit walk serves: the four the
// runner and the scenario generator build, a host standing still and
// one drifting in a straight line forever (a finite exit with no turn
// ahead). mk builds a fresh model from a seed; seed and half are
// checkConservative's seed and rect half-width (m).
type walkModel struct {
	name string
	mk   func(seed int64) Model
	seed int64
	half float64
}

var walkModels = []walkModel{
	{"waypoint", func(seed int64) Model { return newRWP(seed, 15, 2) }, 21, 40},
	{"direction", func(seed int64) Model {
		return NewRandomDirection(testArea(), geom.Point{X: 200, Y: 700}, 10, 20, 1, rand.New(rand.NewSource(seed)))
	}, 5, 40},
	{"manhattan", func(seed int64) Model { return newManhattan(seed, 60, 14, 0.5) }, 41, 35},
	{"group", func(seed int64) Model { _, members := newGroup(seed); return members[0] }, 13, 35},
	{"stationary", func(seed int64) Model {
		r := rand.New(rand.NewSource(seed))
		return Stationary{At: geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}}
	}, 1, 40},
	{"drift", func(seed int64) Model {
		r := rand.New(rand.NewSource(seed))
		return driftModel{v: geom.Vector{DX: r.Float64()*20 - 10, DY: r.Float64()*20 - 10}}
	}, 3, 40},
}

// driftModel moves in a straight line from the origin forever.
type driftModel struct{ v geom.Vector }

func (d driftModel) Position(t float64) geom.Point {
	return geom.Point{X: d.v.DX * t, Y: d.v.DY * t}
}
func (d driftModel) Velocity(float64) geom.Vector { return d.v }
func (d driftModel) NextTurn(float64) float64     { return math.Inf(1) }
func (d driftModel) MaxSpeedMS() float64          { return d.v.Len() }

// square is the rect of half-width half centered on p.
func square(p geom.Point, half float64) geom.Rect {
	return geom.NewRect(geom.Point{X: p.X - half, Y: p.Y - half}, geom.Point{X: p.X + half, Y: p.Y + half})
}

// TestNextRectExitConservative is the oracle's contract: at every
// sampled instant strictly before the reported exit, the host is still
// inside the rectangle. Checked here for the waypoint and direction
// models, a stationary host and a drifting one.
func TestNextRectExitConservative(t *testing.T) {
	checkConservative(t, "waypoint", "direction", "stationary", "drift")
}

// TestNextRectExitConservativeGenerated checks the same contract for
// the two generated-scenario models; it is what lets the spatial index
// trust them for event-driven re-bucketing.
func TestNextRectExitConservativeGenerated(t *testing.T) {
	checkConservative(t, "manhattan", "group")
}

// checkConservative runs the conservativeness check on the named
// walkModels, one subtest each: every model is queried from a chain of
// instants, every rect centered on the host's position there.
func checkConservative(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		i := slices.IndexFunc(walkModels, func(wm walkModel) bool { return wm.name == name })
		if i < 0 {
			t.Fatalf("no walk model %q", name)
		}
		wm := walkModels[i]
		t.Run(wm.name, func(t *testing.T) {
			m := wm.mk(wm.seed)
			const horizon = 600.0
			u := 0.0
			for u < horizon {
				rect := square(m.Position(u), wm.half)
				exit := NextRectExit(m, u, rect, u+horizon)
				if exit < u {
					t.Fatalf("t=%v: exit %v in the past", u, exit)
				}
				// Sample the open interval [u, exit), up to the horizon
				// when the host never leaves: the position must not have
				// left the rect yet (tolerating the walk's eps nudge).
				end := math.Min(exit, u+horizon)
				for i := 0; i < 32; i++ {
					s := u + (end-u-2*eps)*float64(i)/32
					if s < u {
						break
					}
					if p := m.Position(s); !rect.Contains(p) {
						t.Fatalf("t=%v: position %v outside rect %v at %v, before reported exit %v",
							u, p, rect, s, exit)
					}
				}
				if exit <= u {
					exit = u + 0.5 // boundary case: force progress in the test loop
				}
				u = exit + 1
			}
		})
	}
}

// firstSample returns the first instant from + k·step (k ≥ 0) up to to
// at which hit holds, or +Inf if there is none: the fixed-step
// reference an analytic walk over a model's legs is checked against.
func firstSample(from, to, step float64, hit func(s float64) bool) float64 {
	for k := 0; ; k++ {
		s := from + float64(k)*step
		if s > to {
			return math.Inf(1)
		}
		if hit(s) {
			return s
		}
	}
}

// FuzzNextRectExit checks NextRectExit against the 1 ms-step reference
// on a walk model, seed, query time and rect half-width taken from the
// inputs, the rect centered on the host's position at the query time.
// The answer is never later than the first sample outside the rect
// (give or take the walk's eps nudge at a turn), it lies in [t,
// horizon] unless it is +Inf, and it is +Inf only for a host that
// stands still and never turns again.
func FuzzNextRectExit(f *testing.F) {
	for k, wm := range walkModels {
		f.Add(uint8(k), wm.seed, 37.5+float64(k)*101, wm.half)
	}
	f.Add(uint8(0), int64(7), 0.0, 1.0)
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, at, half float64) {
		// Fold the query time into [0, 1000) s and the half-width into
		// [1, 200) m.
		if math.IsNaN(at) || math.IsInf(at, 0) {
			at = 0
		}
		if math.IsNaN(half) || math.IsInf(half, 0) {
			half = 0
		}
		at = math.Mod(math.Abs(at), 1000)
		half = 1 + math.Mod(math.Abs(half), 199)
		const window = 20.0
		wm := walkModels[int(kind)%len(walkModels)]
		m := wm.mk(seed)
		rect := square(m.Position(at), half)
		exit := NextRectExit(m, at, rect, at+window)
		if !(exit >= at) || (exit > at+window && !math.IsInf(exit, 1)) {
			t.Fatalf("%s: exit %v outside [%v, %v] and not +Inf", wm.name, exit, at, at+window)
		}
		out := firstSample(at, at+window, 1e-3, func(s float64) bool { return !rect.Contains(m.Position(s)) })
		if exit > out+2*eps {
			t.Fatalf("%s: exit %v, but the host is at %v, outside %v, at %v", wm.name, exit, m.Position(out), rect, out)
		}
		if math.IsInf(exit, 1) && (m.Velocity(at) != geom.Vector{} || !math.IsInf(m.NextTurn(at), 1)) {
			t.Fatalf("%s: exit +Inf for a host moving at %v with its next turn at %v", wm.name, m.Velocity(at), m.NextTurn(at))
		}
	})
}
