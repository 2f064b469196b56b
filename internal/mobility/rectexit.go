package mobility

import (
	"math"

	"ecgrid/internal/geom"
)

// NextRectExit returns a conservative estimate of the earliest time
// u ≥ t at which the host's position may leave rect: the result may be
// early (costing the caller a redundant check) but is never later than
// the true exit. It returns +Inf when the host provably stays inside
// rect forever (it stands still and never turns again) and at most
// horizon otherwise, so callers re-check periodically instead of
// trusting an unbounded extrapolation.
//
// This is the re-bucketing oracle behind spatial.Index: the radio
// channel asks each host's endpoint, which asks its model, when the
// host may escape its loose cell bounds.
//
// The model is walked analytically leg by leg (NextTurn) with
// rayExitTime, the same primitive the dwell estimator uses. A host
// outside rect at t answers t.
func NextRectExit(m Model, t float64, rect geom.Rect, horizon float64) float64 {
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
		turn := m.NextTurn(u)
		if exit <= turn {
			if math.IsInf(exit, 1) {
				// No velocity and no turn ahead: the host never moves again.
				return exit
			}
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
