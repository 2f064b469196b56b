// Package mobility implements host movement models, chiefly the random
// waypoint model used by the paper's simulations: a host picks a uniform
// random destination in the area and a uniform random speed in (0, vmax],
// travels there in a straight line, pauses for a fixed pause time, and
// repeats.
//
// Every Model answers the same four questions: position, velocity, the
// end of the current straight leg (NextTurn) and a speed bound for the
// whole run (MaxSpeedMS). On top of them the package provides the
// position-derived quantities the simulator needs:
//
//   - EstimateDwell: the paper's GPS-based estimate of how long the host
//     will remain in its current grid cell, extrapolated from its
//     instantaneous location and velocity and trusted no further than
//     its own next course change (a host cannot see the waypoints after
//     it). Sleeping hosts set their wake timers from this value.
//   - NextCellChange: the exact simulation time at which the host's grid
//     cell next changes, used by the simulator to drive grid entry/exit
//     events.
//   - NextRectExit: a never-late bound on when the host may leave a
//     rectangle, the spatial index's re-bucketing oracle.
package mobility

import (
	"math"

	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
)

// Model yields a host's position and velocity as functions of time, and
// the two facts a host knows about its own movement plan: when its
// current straight leg ends and how fast it can ever go.
// Implementations must be consistent: Position must be continuous,
// Velocity its derivative wherever defined, and Velocity constant on
// [t, NextTurn(t)).
type Model interface {
	// Position returns the host location at time t.
	Position(t float64) geom.Point
	// Velocity returns the instantaneous velocity at time t. During a
	// pause it is the zero vector.
	Velocity(t float64) geom.Vector
	// NextTurn returns the time at which the current straight leg (or
	// pause) ends, or +Inf if the host never changes course again. A
	// host choosing a sleep duration uses it so the linear dwell
	// extrapolation is never trusted past the point where the host
	// itself will change course.
	NextTurn(t float64) float64
	// MaxSpeedMS returns an upper bound, in meters per second, on the
	// instantaneous speed at every time ≥ 0. The bound must cover legs
	// not yet generated — every draw the model will ever make — because
	// consumers (the radio channel's receiver scan, a host's cell memo)
	// use it to bound position drift between two instants without
	// materializing the path in between.
	MaxSpeedMS() float64
}

// Stationary is a host that never moves. Used in tests and for fixed
// infrastructure-like scenarios.
type Stationary struct {
	At geom.Point
}

// Position returns the fixed location.
func (s Stationary) Position(float64) geom.Point { return s.At }

// Velocity returns the zero vector.
func (s Stationary) Velocity(float64) geom.Vector { return geom.Vector{} }

// NextTurn returns +Inf: a stationary host never changes course.
func (s Stationary) NextTurn(float64) float64 { return math.Inf(1) }

// randSource is the subset of math/rand used by the waypoint generator.
type randSource interface {
	Float64() float64
}

// leg is one movement segment of the waypoint process: travel from `from`
// to `to` at `speed`, then pause until pauseEnd.
type leg struct {
	start    float64 // time movement begins
	from, to geom.Point
	speed    float64
	arrive   float64 // time the destination is reached
	pauseEnd float64 // arrive + pause
}

func (l *leg) positionAt(t float64) geom.Point {
	if t >= l.arrive {
		return l.to
	}
	frac := (t - l.start) / (l.arrive - l.start)
	d := l.to.Sub(l.from)
	return l.from.Add(d.Scale(frac))
}

func (l *leg) velocityAt(t float64) geom.Vector {
	if t >= l.arrive {
		return geom.Vector{}
	}
	return l.to.Sub(l.from).Unit().Scale(l.speed)
}

// RandomWaypoint is the paper's mobility model. It is deterministic given
// its random source: legs are generated lazily and cached, so position
// queries at any time always agree.
type RandomWaypoint struct {
	area     geom.Rect
	maxSpeed float64
	pause    float64
	rng      randSource
	legs     []leg
	// hot is a copy of the leg legAt last returned (the memo). Legs are
	// append-only and never modified, so the copy cannot go stale.
	hot leg
}

// NewRandomWaypoint creates a waypoint process starting at `start` at time
// zero. Speeds are uniform in (0, maxSpeed]; each arrival is followed by a
// fixed pause (the paper's "pause time"). It panics on non-positive
// maxSpeed or negative pause, which are configuration bugs.
func NewRandomWaypoint(area geom.Rect, start geom.Point, maxSpeed, pause float64, rng randSource) *RandomWaypoint {
	if maxSpeed <= 0 {
		panic("mobility: non-positive max speed")
	}
	if pause < 0 {
		panic("mobility: negative pause time")
	}
	w := &RandomWaypoint{area: area, maxSpeed: maxSpeed, pause: pause, rng: rng}
	w.hot = w.nextLeg(0, start)
	w.legs = append(w.legs, w.hot)
	return w
}

func (w *RandomWaypoint) nextLeg(start float64, from geom.Point) leg {
	to := geom.Point{
		X: w.area.Min.X + w.rng.Float64()*w.area.Width(),
		Y: w.area.Min.Y + w.rng.Float64()*w.area.Height(),
	}
	// Uniform in (0, maxSpeed]: 1-Float64() is in (0, 1].
	speed := (1 - w.rng.Float64()) * w.maxSpeed
	dist := from.Dist(to)
	dur := dist / speed
	if dist == 0 {
		dur = 0
	}
	arrive := start + dur
	return leg{start: start, from: from, to: to, speed: speed, arrive: arrive, pauseEnd: arrive + w.pause}
}

// legAt returns the leg containing time t, generating legs as needed.
// The last hit is memoized: legs tile time contiguously as
// [start, pauseEnd), so a containment check on the cached leg gives the
// same answer the binary search would, and simulation queries are
// overwhelmingly clustered within one leg. The check reads the inline
// copy w.hot rather than w.legs, which keeps the common case off the
// slice's backing array. The returned pointer is to w.hot and is only
// valid until the next legAt call.
func (w *RandomWaypoint) legAt(t float64) *leg {
	if t < 0 {
		panic("mobility: negative time")
	}
	if l := &w.hot; l.start <= t && t < l.pauseEnd {
		return l
	}
	last := w.legs[len(w.legs)-1]
	for last.pauseEnd <= t {
		// Degenerate guard: a zero-length leg with zero pause would not
		// advance time; the uniform destination draw makes repeats
		// measure-zero, but loop anyway until time advances.
		next := w.nextLeg(last.pauseEnd, last.to)
		w.legs = append(w.legs, next)
		last = next
	}
	// Binary search: first leg with pauseEnd > t.
	lo, hi := 0, len(w.legs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.legs[mid].pauseEnd > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	w.hot = w.legs[lo]
	return &w.hot
}

// Position returns the host location at time t.
func (w *RandomWaypoint) Position(t float64) geom.Point {
	return w.legAt(t).positionAt(t)
}

// Velocity returns the instantaneous velocity at time t (zero during
// pauses).
func (w *RandomWaypoint) Velocity(t float64) geom.Vector {
	return w.legAt(t).velocityAt(t)
}

// NextTurn implements Model: while moving it returns the arrival time
// at the current waypoint; while paused, the end of the pause.
func (w *RandomWaypoint) NextTurn(t float64) float64 {
	l := w.legAt(t)
	if t < l.arrive {
		return l.arrive
	}
	return l.pauseEnd
}

// EstimateDwell is the paper's dwell-duration estimate: how long the host
// expects to stay inside its current grid cell, extrapolating its current
// position along its current velocity. The extrapolation is only valid
// until the host's next course change, so the host re-checks there. A
// paused host (zero velocity) cannot see beyond its pause, so the
// estimate is capped at maxDwell; the protocol re-checks and
// re-estimates when the timer expires, exactly as §3.2 prescribes.
func EstimateDwell(m Model, t float64, p *grid.Partition, maxDwell float64) float64 {
	pos := m.Position(t)
	vel := m.Velocity(t)
	bounds := p.Bounds(p.CellOf(pos))
	exit := rayExitTime(pos, vel, bounds)
	if turn := m.NextTurn(t) - t; turn >= 0 && turn < exit {
		exit = turn
	}
	if exit > maxDwell {
		return maxDwell
	}
	if exit <= 0 {
		return 0 // on a boundary moving out: re-check immediately
	}
	return exit
}

// rayExitTime returns the time until a point moving at v from pos crosses
// out of rect, or +Inf if it never does (zero velocity or contained ray).
func rayExitTime(pos geom.Point, v geom.Vector, rect geom.Rect) float64 {
	exit := math.Inf(1)
	if v.DX > 0 {
		exit = math.Min(exit, (rect.Max.X-pos.X)/v.DX)
	} else if v.DX < 0 {
		exit = math.Min(exit, (rect.Min.X-pos.X)/v.DX)
	}
	if v.DY > 0 {
		exit = math.Min(exit, (rect.Max.Y-pos.Y)/v.DY)
	} else if v.DY < 0 {
		exit = math.Min(exit, (rect.Min.Y-pos.Y)/v.DY)
	}
	return exit
}

// NextCellChange returns the exact earliest time u in (t, horizon] at
// which the host's grid cell differs from its cell at t, or +Inf if the
// cell does not change before the horizon. The simulator uses this to
// schedule grid entry/exit processing without polling.
//
// It works for any Model by walking movement analytically when the model
// is a *RandomWaypoint and by bisection for other models.
func NextCellChange(m Model, t float64, p *grid.Partition, horizon float64) float64 {
	if w, ok := m.(*RandomWaypoint); ok {
		return w.nextCellChange(t, p, horizon)
	}
	return bisectCellChange(m, t, p, horizon)
}

// eps nudges a crossing time just past a cell boundary so that CellOf,
// which floors, reports the new cell. One microsecond of travel at any
// realistic speed is well under a millimeter.
const eps = 1e-6

func (w *RandomWaypoint) nextCellChange(t float64, p *grid.Partition, horizon float64) float64 {
	cur := p.CellOf(w.Position(t))
	for t < horizon {
		l := w.legAt(t)
		if t >= l.arrive {
			// Paused at l.to: no movement until pauseEnd.
			t = l.pauseEnd
			continue
		}
		// Moving. Find the first boundary crossing within this leg.
		pos := l.positionAt(t)
		vel := l.velocityAt(t)
		bounds := p.Bounds(p.CellOf(pos))
		exit := rayExitTime(pos, vel, bounds)
		cross := t + exit + eps
		if cross >= l.arrive {
			// No crossing before arrival; skip to the pause.
			if c := p.CellOf(l.to); c != cur {
				// Arrived in a different cell: the crossing happened at
				// or before arrival (numerically at the boundary).
				at := math.Min(cross, l.arrive)
				if at > horizon {
					return math.Inf(1)
				}
				return at
			}
			t = l.pauseEnd
			continue
		}
		if c := p.CellOf(w.Position(cross)); c != cur {
			if cross > horizon {
				return math.Inf(1)
			}
			return cross
		}
		// Grazed a boundary without changing cell (corner touch); advance.
		t = cross
	}
	return math.Inf(1)
}

// bisectCellChange finds a cell change by sampling then bisecting. The
// step is a quarter cell at the model's observed speed, floored to keep
// progress when paused.
func bisectCellChange(m Model, t float64, p *grid.Partition, horizon float64) float64 {
	cur := p.CellOf(m.Position(t))
	step := 0.25
	for u := t + step; u <= horizon; u += step {
		if p.CellOf(m.Position(u)) != cur {
			// Bisect within (u-step, u].
			lo, hi := u-step, u
			for hi-lo > eps {
				mid := (lo + hi) / 2
				if p.CellOf(m.Position(mid)) != cur {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi
		}
	}
	return math.Inf(1)
}
