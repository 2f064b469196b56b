package mobility

import (
	"math"
	"math/rand"
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

	type legModel interface {
		Model
		TurnAware
	}
	cases := []struct {
		name   string
		mk     func() legModel
		legCap func(legModel) int
	}{
		{"waypoint",
			func() legModel { return newRWP(7, 12, 3) },
			func(m legModel) int { return cap(m.(*RandomWaypoint).legs) }},
		{"direction",
			func() legModel {
				return NewRandomDirection(testArea(), geom.Point{X: 500, Y: 500}, 8, 15, 2, rand.New(rand.NewSource(11)))
			},
			func(m legModel) int { return cap(m.(*RandomDirection).legs) }},
		{"manhattan",
			func() legModel {
				return NewManhattan(testArea(), geom.Point{X: 437, Y: 291}, 100, 12, 3, rand.New(rand.NewSource(13)))
			},
			func(m legModel) int { return cap(m.(*Manhattan).legs) }},
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

// TestNextRectExitConservative is the oracle's contract: at every
// sampled instant strictly before the reported exit, the host is still
// inside the rectangle. Checked for the analytic (TurnAware) walk and
// the sampling fallback alike.
func TestNextRectExitConservative(t *testing.T) {
	models := map[string]Model{
		"waypoint":  newRWP(21, 15, 2),
		"direction": NewRandomDirection(testArea(), geom.Point{X: 200, Y: 700}, 10, 20, 1, rand.New(rand.NewSource(5))),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			const horizon = 600.0
			u := 0.0
			for u < horizon {
				pos := m.Position(u)
				rect := geom.NewRect(
					geom.Point{X: pos.X - 40, Y: pos.Y - 40},
					geom.Point{X: pos.X + 40, Y: pos.Y + 40},
				)
				exit := NextRectExit(m, u, rect, u+horizon)
				if exit < u {
					t.Fatalf("t=%v: exit %v in the past", u, exit)
				}
				// Sample the open interval [u, exit): the position must not
				// have left the rect yet (tolerating the walk's eps nudge).
				for i := 0; i < 32; i++ {
					s := u + (exit-u-2*eps)*float64(i)/32
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

// TestNextRectExitFallback exercises the sampling path with a model
// that is deliberately not TurnAware.
type driftModel struct{ v geom.Vector }

func (d driftModel) Position(t float64) geom.Point {
	return geom.Point{X: d.v.DX * t, Y: d.v.DY * t}
}
func (d driftModel) Velocity(float64) geom.Vector { return d.v }

func TestNextRectExitFallback(t *testing.T) {
	m := driftModel{v: geom.Vector{DX: 2, DY: 0}} // crosses x=10 at t=5
	rect := geom.NewRect(geom.Point{X: -10, Y: -10}, geom.Point{X: 10, Y: 10})
	exit := NextRectExit(m, 0, rect, 100)
	if exit > 5 || exit < 4 {
		t.Fatalf("fallback exit = %v, want just below the true crossing at 5", exit)
	}
	// Confined forever within the horizon: must report the horizon, not +Inf,
	// so the caller re-checks.
	still := driftModel{}
	if got := NextRectExit(still, 0, rect, 100); got != 100 {
		t.Fatalf("confined fallback exit = %v, want horizon 100", got)
	}
}
