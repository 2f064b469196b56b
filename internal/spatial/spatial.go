// Package spatial provides the deterministic spatial hash behind the
// radio hot path: a uniform "loose grid" over the simulation plane that
// answers range-bounded neighbor queries in O(local density) instead of
// O(population).
//
// # The loose-grid trick
//
// Every tracked host is bucketed into the square cell containing its
// position at bucketing time. The bucket is allowed to go stale: a host
// only re-buckets when its position leaves its cell's bounds *expanded
// by the slack margin*. The invariant maintained at every event time is
// therefore
//
//	position(now) ∈ cell ⊕ slack
//
// which lets a query for "all hosts within radius r of p" scan only the
// cells intersecting the square [p − (r+slack), p + (r+slack)]² — a
// superset of every host truly in range — while stationary or paused
// hosts never re-bucket at all. Re-bucketing is event-driven: each entry
// supplies a NextExit oracle (backed by the host's mobility legs, see
// mobility.NextRectExit) and the index schedules one engine event at the
// earliest time the position may escape the loose bounds. Because a
// fresh bucket always contains the position with at least slack of
// margin on every side, consecutive re-bucket events of one host are
// separated by the time it takes to travel the slack distance — the
// slack is what bounds the maintenance rate for bounded host speed.
//
// # Determinism
//
// Nearby returns candidates sorted by host ID, so iteration order is a
// pure function of the tracked population and the query — never of map
// hash order or insertion history. Buckets themselves are slices;
// nothing in this package ranges over a map. Re-bucket events touch no
// random stream and no state outside the index, so interleaving them
// into a simulation cannot perturb any other event's behavior: a run
// with the index produces byte-identical traces to a brute-force scan
// (see internal/runner's equivalence test).
package spatial

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// NextExit is the re-bucketing oracle for one tracked host: it returns
// the earliest simulation time ≥ t at which the host's position may lie
// outside bounds, or +Inf if it provably never leaves. It must be
// conservative (never late); returning early merely costs an extra
// event. mobility.NextRectExit implements it for every mobility model.
type NextExit func(t float64, bounds geom.Rect) float64

// slackGuard widens every query rectangle by a millimeter so the
// superset guarantee survives floating-point slop: positions are
// re-derived by leg interpolation and may land nanometers outside the
// loose bounds the re-bucket event was scheduled against. One
// millimeter dwarfs any accumulated rounding while staying far below
// the scale of a radio range.
const slackGuard = 1e-3

// minRebucketDelay keeps a degenerate oracle (one that returns the
// current instant) from scheduling a zero-delay event loop.
const minRebucketDelay = 1e-9

type cellKey struct{ cx, cy int32 }

type entry[T any] struct {
	id      hostid.ID
	payload T
	pos     func() geom.Point
	next    NextExit
	key     cellKey
	ev      sim.Handle
	// rebucketFn is the re-bucket callback bound once at Insert, so the
	// steady re-bucket cycle schedules without allocating a closure.
	rebucketFn func()
}

// Candidate is one Nearby result.
type Candidate[T any] struct {
	ID      hostid.ID
	Payload T
}

// Index is a loose uniform grid of mobile hosts. All methods must be
// called from simulation events (the engine is single-threaded).
type Index[T any] struct {
	engine *sim.Engine
	side   float64
	slack  float64
	cells  cellGrid[T]
	byID   map[hostid.ID]*entry[T]
}

// cellGrid is the bucket store: a dense row-major array over the box of
// every occupied cell (see box). The query loop touches dozens of cells
// per transmission, where a map lookup per cell was measurably hot.
type cellGrid[T any] struct {
	box
	buckets [][]*entry[T]
}

// at returns the bucket for (cx, cy), nil when outside the occupied box.
func (g *cellGrid[T]) at(cx, cy int32) []*entry[T] {
	i, ok := g.slot(cx, cy)
	if !ok {
		return nil
	}
	return g.buckets[i]
}

func (g *cellGrid[T]) add(k cellKey, e *entry[T]) {
	g.ensure(k)
	i, _ := g.slot(k.cx, k.cy)
	g.buckets[i] = append(g.buckets[i], e)
}

// ensure grows the box to include k.
func (g *cellGrid[T]) ensure(k cellKey) {
	nb, grow := g.grownTo(k)
	if !grow {
		return
	}
	g.buckets = relocate(g.box, nb, g.buckets)
	g.box = nb
}

func (g *cellGrid[T]) remove(k cellKey, e *entry[T]) bool {
	i, ok := g.slot(k.cx, k.cy)
	if !ok {
		return false
	}
	bucket := g.buckets[i]
	for j, o := range bucket {
		if o == e {
			bucket[j] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			g.buckets[i] = bucket[:len(bucket)-1]
			return true
		}
	}
	return false
}

// NewIndex creates an index with the given cell side and slack margin,
// both in meters. It panics on non-positive geometry: a zero slack
// would let a host sitting on a cell line re-bucket forever without
// advancing time.
func NewIndex[T any](engine *sim.Engine, side, slack float64) *Index[T] {
	if engine == nil || side <= 0 || slack <= 0 {
		panic(fmt.Sprintf("spatial: invalid index geometry (side=%v, slack=%v)", side, slack))
	}
	return &Index[T]{
		engine: engine,
		side:   side,
		slack:  slack,
		byID:   make(map[hostid.ID]*entry[T]),
	}
}

// Len returns the number of tracked hosts.
func (ix *Index[T]) Len() int { return len(ix.byID) }

func (ix *Index[T]) coord(x float64) int32 {
	return int32(math.Floor(x / ix.side))
}

func (ix *Index[T]) keyOf(p geom.Point) cellKey {
	return cellKey{ix.coord(p.X), ix.coord(p.Y)}
}

// looseBounds is the cell rectangle expanded by the slack margin — the
// region an entry's position may roam before it must re-bucket.
func (ix *Index[T]) looseBounds(k cellKey) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: float64(k.cx)*ix.side - ix.slack, Y: float64(k.cy)*ix.side - ix.slack},
		Max: geom.Point{X: float64(k.cx+1)*ix.side + ix.slack, Y: float64(k.cy+1)*ix.side + ix.slack},
	}
}

// Insert starts tracking a host. pos must return the host's position at
// the current simulation time; next is its re-bucketing oracle.
// Inserting an ID already tracked panics (it is an attach bug).
func (ix *Index[T]) Insert(id hostid.ID, payload T, pos func() geom.Point, next NextExit) {
	if _, dup := ix.byID[id]; dup {
		panic(fmt.Sprintf("spatial: duplicate insert of %v", id))
	}
	e := &entry[T]{id: id, payload: payload, pos: pos, next: next}
	e.rebucketFn = func() { ix.rebucket(e) }
	e.key = ix.keyOf(pos())
	ix.cells.add(e.key, e)
	ix.byID[id] = e
	ix.scheduleRebucket(e)
}

// Remove stops tracking a host and cancels its pending re-bucket event.
// Removing an unknown ID is a no-op.
func (ix *Index[T]) Remove(id hostid.ID) {
	e, ok := ix.byID[id]
	if !ok {
		return
	}
	delete(ix.byID, id)
	ix.engine.Cancel(e.ev)
	e.ev = sim.Handle{}
	ix.dropFromCell(e)
}

func (ix *Index[T]) dropFromCell(e *entry[T]) {
	if !ix.cells.remove(e.key, e) {
		panic(fmt.Sprintf("spatial: entry %v missing from its cell", e.id))
	}
}

func (ix *Index[T]) scheduleRebucket(e *entry[T]) {
	now := ix.engine.Now()
	at := e.next(now, ix.looseBounds(e.key))
	if math.IsInf(at, 1) {
		e.ev = sim.Handle{}
		return // provably confined (e.g. stationary): zero maintenance
	}
	delay := at - now
	if delay < minRebucketDelay {
		delay = minRebucketDelay
	}
	e.ev = ix.engine.Schedule(delay, e.rebucketFn)
}

func (ix *Index[T]) rebucket(e *entry[T]) {
	e.ev = sim.Handle{}
	if ix.byID[e.id] != e {
		return // removed (or replaced) while the event was in flight
	}
	if k := ix.keyOf(e.pos()); k != e.key {
		ix.dropFromCell(e)
		e.key = k
		ix.cells.add(k, e)
	}
	ix.scheduleRebucket(e)
}

// Nearby appends to dst every tracked host whose position may be within
// radius of p — a guaranteed superset of the hosts truly in range — and
// returns dst sorted by host ID. The caller owns the exact distance
// check and should pass a recycled dst[:0] to keep the query
// allocation-free.
func (ix *Index[T]) Nearby(p geom.Point, radius float64, dst []Candidate[T]) []Candidate[T] {
	dst = ix.NearbyAppend(p, radius, dst)
	slices.SortFunc(dst, func(a, b Candidate[T]) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// NearbyAppend is Nearby without the sort: candidates are appended in
// cell-scan order, which depends on bucketing history and must not leak
// into simulation decisions. Callers that need determinism (the radio
// channel) impose host-ID order themselves; everyone else should use
// Nearby.
//
// The scan walks, row by row, the cells within reach of the query disc
// — the per-row column span shrinks by the circle equation, skipping
// the corners of the bounding square. Reach is radius plus the slack a
// bucketed position may have drifted, plus the float-slop guard.
func (ix *Index[T]) NearbyAppend(p geom.Point, radius float64, dst []Candidate[T]) []Candidate[T] {
	cy0, cy1 := ix.rowRange(p, radius)
	r := radius + slackGuard
	for cy := cy0; cy <= cy1; cy++ {
		cx0, cx1, ok := ix.rowSpan(p, r, cy)
		if !ok {
			continue
		}
		for cx := cx0; cx <= cx1; cx++ {
			bucket := ix.cells.at(cx, cy)
			for _, e := range bucket {
				dst = append(dst, Candidate[T]{ID: e.id, Payload: e.payload})
			}
		}
	}
	return dst
}

// rowRange returns the inclusive cell-row range a query disc can reach.
func (ix *Index[T]) rowRange(p geom.Point, radius float64) (cy0, cy1 int32) {
	yReach := radius + ix.slack + slackGuard
	return ix.coord(p.Y - yReach), ix.coord(p.Y + yReach)
}

// rowSpan returns the inclusive cell-column span of row cy that the
// query disc (p, radius) can reach, with r = radius + slackGuard; ok is
// false when the row is entirely out of reach.
//
// Distance from p to the row's slack-expanded y-interval bounds the
// y-component of any candidate in the row; the x-interval that can
// still reach the disc follows from the circle equation.
func (ix *Index[T]) rowSpan(p geom.Point, r float64, cy int32) (cx0, cx1 int32, ok bool) {
	lo := float64(cy)*ix.side - ix.slack
	hi := lo + ix.side + 2*ix.slack
	rowDy := 0.0
	if p.Y < lo {
		rowDy = lo - p.Y
	} else if p.Y > hi {
		rowDy = p.Y - hi
	}
	if rowDy > r {
		return 0, 0, false
	}
	halfW := math.Sqrt(r*r-rowDy*rowDy) + ix.slack
	return ix.coord(p.X - halfW), ix.coord(p.X + halfW), true
}
