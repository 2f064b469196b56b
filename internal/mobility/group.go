package mobility

import (
	"math"

	"ecgrid/internal/geom"
)

// Group mobility (Reference Point Group Mobility, RPGM): a group of
// hosts shares one reference point that follows a random-waypoint
// trajectory, and each member adds its own small local motion around
// that moving reference. The composition of two piecewise-linear
// trajectories is piecewise linear with knots at the union of their
// knots, so GroupMember.NextTurn is the earlier of the two next knots
// and the NextRectExit oracle walks it analytically, leg by leg, exactly
// as it walks the primitive models.
//
// The caller keeps member positions inside the simulation area by
// running the reference waypoint over the area inset by the group
// radius (see NewGroupReference).

// GroupReference is the shared trajectory of one group: a random
// waypoint process over the area shrunk by the member offset radius, so
// reference + offset never leaves the full area.
type GroupReference struct {
	rwp *RandomWaypoint
}

// NewGroupReference creates a group's reference trajectory. The
// reference moves like a waypoint host with the given top speed and
// pause over area inset by radiusM on every side; start is clamped into
// that inset. It panics when twice the radius exceeds an area dimension
// (the inset would be empty) — a spec-validation bug.
func NewGroupReference(area geom.Rect, start geom.Point, radiusM, maxSpeed, pause float64, rng randSource) *GroupReference {
	if radiusM <= 0 {
		panic("mobility: non-positive group radius")
	}
	inset := geom.NewRect(
		geom.Point{X: area.Min.X + radiusM, Y: area.Min.Y + radiusM},
		geom.Point{X: area.Max.X - radiusM, Y: area.Max.Y - radiusM},
	)
	if inset.Width() <= 0 || inset.Height() <= 0 {
		panic("mobility: group radius too large for the area")
	}
	return &GroupReference{rwp: NewRandomWaypoint(inset, inset.Clamp(start), maxSpeed, pause, rng)}
}

// GroupMember is one host of a group: reference trajectory plus a
// private local waypoint motion inside the [-R, R]² offset box.
type GroupMember struct {
	ref   *GroupReference
	local *RandomWaypoint
}

// NewGroupMember attaches a member to ref. The member's local motion is
// a waypoint process over the offset box [-radiusM, radiusM]² at
// localSpeed, starting at a uniform offset drawn from rng — so members
// of a group spread out around the reference instead of stacking on it.
func NewGroupMember(ref *GroupReference, radiusM, localSpeed, pause float64, rng randSource) *GroupMember {
	if radiusM <= 0 || localSpeed <= 0 {
		panic("mobility: invalid group member parameters")
	}
	box := geom.NewRect(geom.Point{X: -radiusM, Y: -radiusM}, geom.Point{X: radiusM, Y: radiusM})
	start := geom.Point{
		X: -radiusM + rng.Float64()*2*radiusM,
		Y: -radiusM + rng.Float64()*2*radiusM,
	}
	return &GroupMember{ref: ref, local: NewRandomWaypoint(box, start, localSpeed, pause, rng)}
}

// Position implements Model: the reference position displaced by the
// member's current local offset.
func (g *GroupMember) Position(t float64) geom.Point {
	p := g.ref.rwp.Position(t)
	o := g.local.Position(t)
	return geom.Point{X: p.X + o.X, Y: p.Y + o.Y}
}

// Velocity implements Model: the vector sum of the reference and local
// velocities.
func (g *GroupMember) Velocity(t float64) geom.Vector {
	v := g.ref.rwp.Velocity(t)
	w := g.local.Velocity(t)
	return geom.Vector{DX: v.DX + w.DX, DY: v.DY + w.DY}
}

// NextTurn implements Model: the earlier of the reference's and the
// local motion's next course change — between two such knots both
// components are constant-velocity, so the summed trajectory is a
// straight leg.
func (g *GroupMember) NextTurn(t float64) float64 {
	return math.Min(g.ref.rwp.NextTurn(t), g.local.NextTurn(t))
}
