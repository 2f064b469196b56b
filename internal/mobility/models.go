package mobility

import (
	"math"
	"sort"

	"ecgrid/internal/geom"
)

// This file holds the mobility models beyond the paper's random waypoint:
// the random-direction model common in MANET sensitivity studies, and a
// scripted path model for deterministic tests and reproducible demos.

// RandomDirection moves at a constant speed in a uniformly random
// direction, reflecting off the area borders like a billiard ball, and
// picks a fresh direction (plus an optional pause) every epoch. Unlike
// random waypoint it produces a uniform spatial distribution, making it a
// useful robustness check against waypoint's center bias.
type RandomDirection struct {
	area  geom.Rect
	speed float64
	epoch float64
	pause float64
	rng   randSource
	legs  []dirLeg
	hot   dirLeg // copy of the leg legAt last returned (memo)
}

type dirLeg struct {
	start    float64
	from     geom.Point
	v        geom.Vector
	moveEnd  float64 // start + epoch
	pauseEnd float64 // moveEnd + pause
}

// NewRandomDirection creates the model: each epoch lasts epochSecs of
// movement at exactly speed m/s followed by pauseSecs standing still.
func NewRandomDirection(area geom.Rect, start geom.Point, speed, epochSecs, pauseSecs float64, rng randSource) *RandomDirection {
	if speed <= 0 || epochSecs <= 0 || pauseSecs < 0 {
		panic("mobility: invalid random-direction parameters")
	}
	m := &RandomDirection{area: area, speed: speed, epoch: epochSecs, pause: pauseSecs, rng: rng}
	m.hot = m.nextLeg(0, start)
	m.legs = append(m.legs, m.hot)
	return m
}

func (m *RandomDirection) nextLeg(start float64, from geom.Point) dirLeg {
	theta := m.rng.Float64() * 2 * math.Pi
	return dirLeg{
		start:    start,
		from:     from,
		v:        geom.Vector{DX: math.Cos(theta) * m.speed, DY: math.Sin(theta) * m.speed},
		moveEnd:  start + m.epoch,
		pauseEnd: start + m.epoch + m.pause,
	}
}

func (m *RandomDirection) legAt(t float64) dirLeg {
	if t < 0 {
		panic("mobility: negative time")
	}
	// Same memo as RandomWaypoint.legAt: legs tile [start, pauseEnd), so
	// the cached leg answers clustered queries without searching.
	if l := m.hot; l.start <= t && t < l.pauseEnd {
		return l
	}
	last := m.legs[len(m.legs)-1]
	for last.pauseEnd <= t {
		next := m.nextLeg(last.pauseEnd, m.positionInLeg(last, last.pauseEnd))
		m.legs = append(m.legs, next)
		last = next
	}
	i := sort.Search(len(m.legs), func(i int) bool { return m.legs[i].pauseEnd > t })
	m.hot = m.legs[i]
	return m.hot
}

// positionInLeg folds the unbounded straight-line position back into the
// area by mirror reflection.
func (m *RandomDirection) positionInLeg(l dirLeg, t float64) geom.Point {
	dt := math.Min(t, l.moveEnd) - l.start
	raw := l.from.Add(l.v.Scale(dt))
	return geom.Point{
		X: reflect(raw.X, m.area.Min.X, m.area.Max.X),
		Y: reflect(raw.Y, m.area.Min.Y, m.area.Max.Y),
	}
}

// reflect maps an unbounded coordinate into [lo, hi] by mirroring at the
// borders (sawtooth folding).
func reflect(x, lo, hi float64) float64 {
	w := hi - lo
	if w <= 0 {
		return lo
	}
	// Shift into a 2w-periodic triangle wave.
	y := math.Mod(x-lo, 2*w)
	if y < 0 {
		y += 2 * w
	}
	if y > w {
		y = 2*w - y
	}
	return lo + y
}

// Position implements Model.
func (m *RandomDirection) Position(t float64) geom.Point {
	l := m.legAt(t)
	return m.positionInLeg(l, t)
}

// Velocity implements Model. During pauses it is zero; while moving, the
// folded direction flips sign at each reflection.
func (m *RandomDirection) Velocity(t float64) geom.Vector {
	l := m.legAt(t)
	if t >= l.moveEnd {
		return geom.Vector{}
	}
	dt := t - l.start
	raw := l.from.Add(l.v.Scale(dt))
	v := l.v
	if reflectSign(raw.X, m.area.Min.X, m.area.Max.X) < 0 {
		v.DX = -v.DX
	}
	if reflectSign(raw.Y, m.area.Min.Y, m.area.Max.Y) < 0 {
		v.DY = -v.DY
	}
	return v
}

// reflectSign reports whether the folded coordinate currently moves with
// (+1) or against (-1) the raw coordinate.
func reflectSign(x, lo, hi float64) float64 {
	w := hi - lo
	if w <= 0 {
		return 1
	}
	y := math.Mod(x-lo, 2*w)
	if y < 0 {
		y += 2 * w
	}
	if y > w {
		return -1
	}
	return 1
}

// NextTurn implements Model: movement direction is constant until the
// epoch ends or the next border reflection, whichever is earlier.
func (m *RandomDirection) NextTurn(t float64) float64 {
	l := m.legAt(t)
	if t >= l.moveEnd {
		return l.pauseEnd
	}
	next := l.moveEnd
	pos := m.Position(t)
	vel := m.Velocity(t)
	if bounce := t + rayExitTime(pos, vel, m.area); bounce < next {
		next = bounce
	}
	return next
}

// ScriptedPath visits fixed waypoints at fixed times, interpolating
// linearly between them, and stays at the last waypoint afterwards. It
// exists for deterministic tests: the trajectory is fully specified by
// its inputs.
type ScriptedPath struct {
	times  []float64
	points []geom.Point
}

// NewScriptedPath creates a path passing through points[i] at times[i].
// Times must be strictly increasing and the slices non-empty and of equal
// length.
func NewScriptedPath(times []float64, points []geom.Point) *ScriptedPath {
	if len(times) == 0 || len(times) != len(points) {
		panic("mobility: scripted path needs equal, non-empty times and points")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			panic("mobility: scripted path times must be strictly increasing")
		}
	}
	return &ScriptedPath{times: times, points: points}
}

// Position implements Model.
func (s *ScriptedPath) Position(t float64) geom.Point {
	if t <= s.times[0] {
		return s.points[0]
	}
	n := len(s.times)
	if t >= s.times[n-1] {
		return s.points[n-1]
	}
	i := sort.SearchFloat64s(s.times, t)
	// times[i-1] < t ≤ times[i]
	frac := (t - s.times[i-1]) / (s.times[i] - s.times[i-1])
	d := s.points[i].Sub(s.points[i-1])
	return s.points[i-1].Add(d.Scale(frac))
}

// Velocity implements Model.
func (s *ScriptedPath) Velocity(t float64) geom.Vector {
	n := len(s.times)
	if t < s.times[0] || t >= s.times[n-1] {
		return geom.Vector{}
	}
	i := sort.SearchFloat64s(s.times, t)
	if s.times[i] == t {
		i++ // at a knot, report the upcoming segment's velocity
	}
	if i == 0 || i >= n {
		return geom.Vector{}
	}
	d := s.points[i].Sub(s.points[i-1])
	return d.Scale(1 / (s.times[i] - s.times[i-1]))
}

// NextTurn implements Model: the next waypoint time.
func (s *ScriptedPath) NextTurn(t float64) float64 {
	for _, u := range s.times {
		if u > t {
			return u
		}
	}
	return math.Inf(1)
}
