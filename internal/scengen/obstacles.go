package scengen

import "ecgrid/internal/geom"

// ObstacleMap answers propagation queries for a set of attenuating
// rectangles. It is pure geometry — stateless and deterministic — so
// installing one in the channel's delivery path cannot disturb any RNG
// stream; the same two endpoints always see the same effective range.
type ObstacleMap struct {
	obs []Obstacle
}

// NewObstacleMap builds the map from a validated propagation spec.
func NewObstacleMap(p *Propagation) *ObstacleMap {
	return &ObstacleMap{obs: p.Obstacles}
}

// EffectiveRange shrinks base by (1 - Atten) for every obstacle the
// from→to sight line crosses. An Atten-1 obstacle zeroes the range
// (full shadowing); overlapping obstacles compound multiplicatively.
func (m *ObstacleMap) EffectiveRange(base float64, from, to geom.Point) float64 {
	r := base
	for i := range m.obs {
		o := &m.obs[i]
		if segmentCrossesRect(from, to, o) {
			r *= 1 - o.Atten
			if r == 0 {
				return 0
			}
		}
	}
	return r
}

// Deliverable reports whether a transmission from→to survives the map:
// the receiver must sit within the obstacle-shrunk range.
func (m *ObstacleMap) Deliverable(baseRange float64, from, to geom.Point) bool {
	eff := m.EffectiveRange(baseRange, from, to)
	return from.Dist2(to) <= eff*eff
}

// reachGuard (meters) pads Reaches' square against rounding in the
// slab test, as the radio's drift bounds are padded (DESIGN §16).
const reachGuard = 1e-3

// Reaches reports whether some obstacle intersects the closed square
// from ± (r + 1 mm). When none does, no sight line from `from` to a
// point within r touches an obstacle, so Deliverable(r, from, to) is
// true for every such point: the radio channel asks this once per frame
// (radio.Channel.InterceptReach) and skips the per-receiver calls.
func (m *ObstacleMap) Reaches(from geom.Point, r float64) bool {
	h := r + reachGuard
	for i := range m.obs {
		o := &m.obs[i]
		if o.MinX <= from.X+h && o.MaxX >= from.X-h && o.MinY <= from.Y+h && o.MaxY >= from.Y-h {
			return true
		}
	}
	return false
}

// segmentCrossesRect is the Cohen–Sutherland-style slab test: clip the
// parameter interval of the segment against the rectangle's x and y
// slabs and see whether a sub-interval survives. Touching the boundary
// counts as crossing (a grazing sight line is still shadowed).
func segmentCrossesRect(a, b geom.Point, o *Obstacle) bool {
	t0, t1 := 0.0, 1.0
	clip := func(p, q, lo, hi float64) bool {
		d := q - p
		if d == 0 {
			return p >= lo && p <= hi
		}
		u0 := (lo - p) / d
		u1 := (hi - p) / d
		if u0 > u1 {
			u0, u1 = u1, u0
		}
		if u0 > t0 {
			t0 = u0
		}
		if u1 < t1 {
			t1 = u1
		}
		return t0 <= t1
	}
	return clip(a.X, b.X, o.MinX, o.MaxX) && clip(a.Y, b.Y, o.MinY, o.MaxY)
}
