package mobility

import "math"

// MaxSpeedMS returns 0: a stationary host never moves.
func (s Stationary) MaxSpeedMS() float64 { return 0 }

// MaxSpeedMS returns the waypoint speed cap: leg speeds are drawn
// uniform in (0, maxSpeed].
func (w *RandomWaypoint) MaxSpeedMS() float64 { return w.maxSpeed }

// MaxSpeedMS returns the constant epoch speed.
func (m *RandomDirection) MaxSpeedMS() float64 { return m.speed }

// MaxSpeedMS returns the street speed cap: segment speeds are drawn
// uniform in (0, maxSpeed].
func (m *Manhattan) MaxSpeedMS() float64 { return m.maxSpeed }

// MaxSpeedMS bounds the member by the triangle inequality: its velocity
// is the sum of the group reference's velocity and the local roaming
// velocity, each capped by its own waypoint process.
func (g *GroupMember) MaxSpeedMS() float64 {
	return g.ref.rwp.maxSpeed + g.local.maxSpeed
}

// MaxSpeedMS returns the fastest segment speed of the script. The whole
// path is known at construction, so the bound is exact.
func (s *ScriptedPath) MaxSpeedMS() float64 {
	top := 0.0
	for i := 1; i < len(s.times); i++ {
		dt := s.times[i] - s.times[i-1]
		if dt <= 0 {
			continue // coincident timestamps: a jump would be a script bug
		}
		if v := math.Sqrt(s.points[i].Dist2(s.points[i-1])) / dt; v > top {
			top = v
		}
	}
	return top
}
