package spatial

import (
	"fmt"
	"math"

	"ecgrid/internal/geom"
)

// PointSet is an exact (slack-free) spatial hash over immobile points —
// in the radio channel it holds the origin of every in-flight
// transmission so carrier sense asks "is anything radiating within
// range of p?" against the local cells only. Points never move between
// Add and Remove, so they are bucketed by their exact coordinates and
// queries need no staleness margin beyond the float-slop guard. Cells
// live in the same dense row-major box as Index's buckets, so a probe
// reads slices and never hashes.
type PointSet struct {
	side  float64
	box   box
	cells [][]anchored
	n     int
}

type anchored struct {
	id uint64
	at geom.Point
}

// NewPointSet creates a set with the given cell side in meters.
func NewPointSet(side float64) *PointSet {
	if side <= 0 {
		panic(fmt.Sprintf("spatial: invalid point-set cell side %v", side))
	}
	return &PointSet{side: side}
}

// Len returns the number of stored points.
func (ps *PointSet) Len() int { return ps.n }

func (ps *PointSet) coord(x float64) int32 {
	return int32(math.Floor(x / ps.side))
}

// Add stores a point under the caller's id. The same id must not be
// live twice.
func (ps *PointSet) Add(id uint64, at geom.Point) {
	k := cellKey{ps.coord(at.X), ps.coord(at.Y)}
	if nb, grow := ps.box.grownTo(k); grow {
		ps.cells = relocate(ps.box, nb, ps.cells)
		ps.box = nb
	}
	i, _ := ps.box.slot(k.cx, k.cy)
	ps.cells[i] = append(ps.cells[i], anchored{id: id, at: at})
	ps.n++
}

// Remove deletes the point previously added under id at the identical
// coordinates. Removing a point that was never added panics: it means
// the caller's bookkeeping diverged from the set's.
func (ps *PointSet) Remove(id uint64, at geom.Point) {
	if i, ok := ps.box.slot(ps.coord(at.X), ps.coord(at.Y)); ok {
		bucket := ps.cells[i]
		for j := range bucket {
			if bucket[j].id == id {
				bucket[j] = bucket[len(bucket)-1]
				ps.cells[i] = bucket[:len(bucket)-1]
				ps.n--
				return
			}
		}
	}
	panic(fmt.Sprintf("spatial: point %d missing from its cell", id))
}

// AnyWithin reports whether any stored point lies within radius of p
// (boundary inclusive, matching the channel's closed range check). The
// scan covers only the cells overlapping the query square, clamped to
// the occupied box; each candidate is confirmed with the exact squared
// distance, so the answer is identical to a linear scan over every
// stored point.
func (ps *PointSet) AnyWithin(p geom.Point, radius float64) bool {
	if ps.n == 0 {
		return false
	}
	reach := radius + slackGuard
	b := ps.box
	cx0 := max(ps.coord(p.X-reach), b.minX)
	cx1 := min(ps.coord(p.X+reach), b.minX+b.w-1)
	cy0 := max(ps.coord(p.Y-reach), b.minY)
	cy1 := min(ps.coord(p.Y+reach), b.minY+b.h-1)
	r2 := radius * radius
	for cy := cy0; cy <= cy1; cy++ {
		row := ps.cells[(cy-b.minY)*b.w:]
		for cx := cx0; cx <= cx1; cx++ {
			for _, a := range row[cx-b.minX] {
				if a.at.Dist2(p) <= r2 {
					return true
				}
			}
		}
	}
	return false
}
