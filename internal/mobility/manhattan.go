package mobility

import "ecgrid/internal/geom"

// Manhattan is the city-grid (street-constrained) mobility model used in
// urban MANET studies: hosts move only along the lines of a square
// street lattice of the given block size, choosing at every intersection
// whether to continue straight, turn left, or turn right, with an
// optional fixed pause (a traffic light) at each intersection. Speeds
// are redrawn per street segment, uniform in (0, maxSpeed], exactly as
// random waypoint draws its leg speeds.
//
// Like the other stochastic models it is deterministic given its random
// source, and it reuses the waypoint leg machinery: movement is a lazily
// generated, contiguous sequence of constant-velocity legs, so the model
// is TurnAware and the NextRectExit oracle walks it analytically.
type Manhattan struct {
	origin geom.Point // lattice origin (area minimum)
	block  float64
	nx, ny int // intersection lattice is (nx+1) x (ny+1) points

	maxSpeed float64
	pause    float64
	rng      randSource

	legs []leg
	hot  leg // copy of the leg legAt last returned (memo)

	// Generator state: the intersection and heading after the last
	// generated leg. Headings are lattice steps in {-1, 0, 1}².
	ix, iy     int
	dirX, dirY int
}

// NewManhattan creates a street-mobility process over the given area
// with the given block size. The start position snaps to the nearest
// lattice intersection (streets are where hosts live; free-space starts
// are an artifact of the placement draw). It panics on non-positive
// block size or speed, or a block larger than the area — configuration
// bugs a generator spec validation should have caught.
func NewManhattan(area geom.Rect, start geom.Point, blockM, maxSpeed, pause float64, rng randSource) *Manhattan {
	if blockM <= 0 || maxSpeed <= 0 || pause < 0 {
		panic("mobility: invalid manhattan parameters")
	}
	nx := int(area.Width() / blockM)
	ny := int(area.Height() / blockM)
	if nx < 1 && ny < 1 {
		panic("mobility: manhattan block larger than the area")
	}
	m := &Manhattan{
		origin:   area.Min,
		block:    blockM,
		nx:       nx,
		ny:       ny,
		maxSpeed: maxSpeed,
		pause:    pause,
		rng:      rng,
	}
	m.ix = clampIdx(int((start.X-area.Min.X)/blockM+0.5), nx)
	m.iy = clampIdx(int((start.Y-area.Min.Y)/blockM+0.5), ny)
	m.hot = m.nextLeg(0)
	m.legs = append(m.legs, m.hot)
	return m
}

func clampIdx(i, max int) int {
	if i < 0 {
		return 0
	}
	if i > max {
		return max
	}
	return i
}

func (m *Manhattan) point(ix, iy int) geom.Point {
	return geom.Point{
		X: m.origin.X + float64(ix)*m.block,
		Y: m.origin.Y + float64(iy)*m.block,
	}
}

// nextLeg advances the generator by one street segment: pick a heading
// at the current intersection, draw a speed, and travel to the adjacent
// intersection, then pause. Heading weights follow the classic
// Manhattan model — straight 0.5, left 0.25, right 0.25 — renormalized
// over the directions the lattice border leaves open; reversing is a
// last resort (dead ends only, which a 1-D lattice produces).
func (m *Manhattan) nextLeg(start float64) leg {
	type option struct {
		dx, dy int
		w      float64
	}
	options := make([]option, 0, 4)
	add := func(dx, dy int, w float64) {
		jx, jy := m.ix+dx, m.iy+dy
		if jx < 0 || jx > m.nx || jy < 0 || jy > m.ny {
			return
		}
		options = append(options, option{dx, dy, w})
	}
	if m.dirX == 0 && m.dirY == 0 {
		// First leg: no heading yet, all open directions equal.
		add(1, 0, 1)
		add(-1, 0, 1)
		add(0, 1, 1)
		add(0, -1, 1)
	} else {
		add(m.dirX, m.dirY, 0.5)   // straight
		add(-m.dirY, m.dirX, 0.25) // left
		add(m.dirY, -m.dirX, 0.25) // right
		if len(options) == 0 {
			add(-m.dirX, -m.dirY, 1) // dead end: turn back
		}
	}
	from := m.point(m.ix, m.iy)
	if len(options) == 0 {
		// Degenerate 1x1 lattice: nowhere to go. Idle in place; the
		// positive dwell keeps legAt's generation loop advancing.
		dwell := m.pause
		if dwell <= 0 {
			dwell = 1
		}
		return leg{start: start, from: from, to: from, speed: 0, arrive: start, pauseEnd: start + dwell}
	}
	total := 0.0
	for _, o := range options {
		total += o.w
	}
	r := m.rng.Float64() * total
	choice := options[len(options)-1]
	for _, o := range options {
		if r < o.w {
			choice = o
			break
		}
		r -= o.w
	}
	m.dirX, m.dirY = choice.dx, choice.dy
	m.ix += choice.dx
	m.iy += choice.dy
	to := m.point(m.ix, m.iy)
	// Uniform in (0, maxSpeed]: 1-Float64() is in (0, 1].
	speed := (1 - m.rng.Float64()) * m.maxSpeed
	arrive := start + from.Dist(to)/speed
	return leg{start: start, from: from, to: to, speed: speed, arrive: arrive, pauseEnd: arrive + m.pause}
}

// legAt returns the leg containing time t, generating legs as needed.
// Same memo-then-search scheme as RandomWaypoint.legAt: legs tile time
// contiguously as [start, pauseEnd), and the returned pointer is to the
// inline copy m.hot.
func (m *Manhattan) legAt(t float64) *leg {
	if t < 0 {
		panic("mobility: negative time")
	}
	if l := &m.hot; l.start <= t && t < l.pauseEnd {
		return l
	}
	for m.legs[len(m.legs)-1].pauseEnd <= t {
		m.legs = append(m.legs, m.nextLeg(m.legs[len(m.legs)-1].pauseEnd))
	}
	lo, hi := 0, len(m.legs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.legs[mid].pauseEnd > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	m.hot = m.legs[lo]
	return &m.hot
}

// Position implements Model.
func (m *Manhattan) Position(t float64) geom.Point {
	return m.legAt(t).positionAt(t)
}

// Velocity implements Model (zero while paused at an intersection).
func (m *Manhattan) Velocity(t float64) geom.Vector {
	return m.legAt(t).velocityAt(t)
}

// NextTurn implements TurnAware: the arrival at the next intersection
// while moving, the end of the pause while stopped.
func (m *Manhattan) NextTurn(t float64) float64 {
	l := m.legAt(t)
	if t < l.arrive {
		return l.arrive
	}
	return l.pauseEnd
}
