package mobility

import (
	"math"

	"ecgrid/internal/geom"
)

// NextRectExit returns a conservative estimate of the earliest time
// u ≥ t at which the host's position may leave rect: the result may be
// early (costing the caller a redundant check) but is never later than
// the true exit. It returns +Inf when the host provably stays inside
// rect forever, and at most horizon otherwise, so callers re-check
// periodically instead of trusting an unbounded extrapolation.
//
// This is the re-bucketing oracle behind spatial.Index: the radio
// channel hands each host's model to the index, which asks when the
// host may escape its loose cell bounds.
//
//   - Stationary hosts answer exactly: +Inf when inside, t when not.
//   - TurnAware models (waypoint, direction, scripted) are walked
//     analytically leg by leg with rayExitTime, the same primitive the
//     dwell estimator uses.
//   - Anything else falls back to sampling + bisection and returns the
//     last instant known to be inside — conservative, at the cost of
//     one extra re-check per crossing.
func NextRectExit(m Model, t float64, rect geom.Rect, horizon float64) float64 {
	switch s := m.(type) {
	case Stationary:
		return stationaryRectExit(s, t, rect)
	case *Stationary:
		return stationaryRectExit(*s, t, rect)
	}
	ta, ok := m.(TurnAware)
	if !ok {
		return sampleRectExit(m, t, rect, horizon)
	}
	u := t
	for u < horizon {
		pos := m.Position(u)
		if !rect.Contains(pos) {
			return u
		}
		// Straight-line crossing of the current leg. rayExitTime is exact
		// for the leg's constant velocity; the crossing only binds if it
		// happens before the host turns.
		exit := u + rayExitTime(pos, m.Velocity(u), rect)
		turn := ta.NextTurn(u)
		if exit <= turn {
			if exit >= horizon {
				return horizon
			}
			return exit
		}
		if turn <= u {
			// A turn exactly at u (e.g. a border bounce at this instant)
			// must not stall the walk; eps of travel cannot jump the
			// slack-sized margin the caller queries with.
			turn = u + eps
		}
		u = turn
	}
	return horizon
}

func stationaryRectExit(s Stationary, t float64, rect geom.Rect) float64 {
	if rect.Contains(s.At) {
		return math.Inf(1)
	}
	return t
}

// sampleRectExit is the model-agnostic fallback: march in fixed steps
// until a sample lands outside rect, then bisect the crossing. It
// returns the last instant still known inside, keeping the result
// conservative (never later than the true exit).
func sampleRectExit(m Model, t float64, rect geom.Rect, horizon float64) float64 {
	if !rect.Contains(m.Position(t)) {
		return t
	}
	const step = 0.25
	for u := t + step; ; u += step {
		if u > horizon {
			u = horizon
		}
		if !rect.Contains(m.Position(u)) {
			lo, hi := u-step, u
			for hi-lo > eps {
				mid := (lo + hi) / 2
				if rect.Contains(m.Position(mid)) {
					lo = mid
				} else {
					hi = mid
				}
			}
			return lo
		}
		if u >= horizon {
			return horizon
		}
	}
}
