// Package grid implements the 2D logical grid partition that GRID, ECGRID,
// and GAF all share. The geographic area is divided into square cells of
// side d; cells are addressed by integer (x, y) coordinates following the
// conventional coordinate system with (0, 0) at the south-west corner.
//
// The paper chooses d = √2·r/3 where r is the radio range, so that a
// gateway at the center of a cell can reach any host anywhere in its eight
// neighboring cells (center-to-far-corner of a diagonal neighbor is
// 1.5·√2·d ≤ r). Its simulations round down to d = 100 m for r = 250 m.
package grid

import (
	"fmt"
	"math"

	"ecgrid/internal/geom"
)

// Coord is a logical grid coordinate.
type Coord struct {
	X, Y int
}

// String formats the coordinate as (x, y).
func (c Coord) String() string { return fmt.Sprintf("(%d, %d)", c.X, c.Y) }

// IsNeighbor reports whether o is one of c's eight surrounding cells
// (or c itself is not considered a neighbor).
func (c Coord) IsNeighbor(o Coord) bool {
	dx, dy := abs(c.X-o.X), abs(c.Y-o.Y)
	return dx <= 1 && dy <= 1 && !(dx == 0 && dy == 0)
}

// ChebyshevDist returns the L∞ distance between two coordinates: the
// number of grid-by-grid hops needed when every hop may be diagonal.
func (c Coord) ChebyshevDist(o Coord) int {
	return max(abs(c.X-o.X), abs(c.Y-o.Y))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// RecommendedSize returns the largest grid side d = √2·r/3 guaranteeing
// that a gateway at a cell center reaches any host in the eight
// neighboring cells, for radio range r.
func RecommendedSize(r float64) float64 {
	return math.Sqrt2 * r / 3
}

// Partition maps plane positions to grid coordinates over a bounded area.
type Partition struct {
	area geom.Rect
	d    float64
	nx   int // number of columns
	ny   int // number of rows
}

// NewPartition partitions area into square cells of side d. It panics on a
// non-positive d or an empty area, which are configuration bugs.
func NewPartition(area geom.Rect, d float64) *Partition {
	if d <= 0 {
		panic("grid: non-positive cell size")
	}
	if area.Width() <= 0 || area.Height() <= 0 {
		panic("grid: empty area")
	}
	return &Partition{
		area: area,
		d:    d,
		nx:   int(math.Ceil(area.Width() / d)),
		ny:   int(math.Ceil(area.Height() / d)),
	}
}

// Area returns the partitioned region.
func (p *Partition) Area() geom.Rect { return p.area }

// CellSize returns the side length d.
func (p *Partition) CellSize() float64 { return p.d }

// Cols returns the number of grid columns.
func (p *Partition) Cols() int { return p.nx }

// Rows returns the number of grid rows.
func (p *Partition) Rows() int { return p.ny }

// CellOf returns the coordinate of the cell containing pt. Points outside
// the area are clamped to the nearest cell, so hosts that graze the border
// during movement still map to a valid cell.
func (p *Partition) CellOf(pt geom.Point) Coord {
	cx := int(math.Floor((pt.X - p.area.Min.X) / p.d))
	cy := int(math.Floor((pt.Y - p.area.Min.Y) / p.d))
	return Coord{X: clamp(cx, 0, p.nx-1), Y: clamp(cy, 0, p.ny-1)}
}

// CellMargin returns CellOf(pt) and the distance from pt to the nearest
// side through which it can leave that cell. Sides on the area border
// are skipped: CellOf clamps positions beyond them into the same cell.
// A 1×1 partition has no side to leave, so its margin is +Inf. Near a
// side the margin may read slightly negative from rounding; callers
// pad it rather than trust its last digits.
func (p *Partition) CellMargin(pt geom.Point) (Coord, float64) {
	c := p.CellOf(pt)
	m := math.Inf(1)
	// Each product is wrapped in float64(...) so no platform fuses it
	// with the add into one FMA: the margin rounds the same everywhere.
	if c.X > 0 {
		m = min(m, pt.X-(p.area.Min.X+float64(float64(c.X)*p.d)))
	}
	if c.X < p.nx-1 {
		m = min(m, p.area.Min.X+float64(float64(c.X+1)*p.d)-pt.X)
	}
	if c.Y > 0 {
		m = min(m, pt.Y-(p.area.Min.Y+float64(float64(c.Y)*p.d)))
	}
	if c.Y < p.ny-1 {
		m = min(m, p.area.Min.Y+float64(float64(c.Y+1)*p.d)-pt.Y)
	}
	return c, m
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Valid reports whether c addresses a cell inside the partition.
func (p *Partition) Valid(c Coord) bool {
	return c.X >= 0 && c.X < p.nx && c.Y >= 0 && c.Y < p.ny
}

// Center returns the physical center of cell c. For edge cells that the
// area only partially covers, this is still the geometric center of the
// full d×d cell, matching the paper's "distance to grid center" rule.
func (p *Partition) Center(c Coord) geom.Point {
	return geom.Point{
		X: p.area.Min.X + (float64(c.X)+0.5)*p.d,
		Y: p.area.Min.Y + (float64(c.Y)+0.5)*p.d,
	}
}

// Bounds returns the rectangle covered by cell c, clipped to the area.
func (p *Partition) Bounds(c Coord) geom.Rect {
	r := geom.Rect{
		Min: geom.Point{X: p.area.Min.X + float64(c.X)*p.d, Y: p.area.Min.Y + float64(c.Y)*p.d},
		Max: geom.Point{X: p.area.Min.X + float64(c.X+1)*p.d, Y: p.area.Min.Y + float64(c.Y+1)*p.d},
	}
	r.Max.X = math.Min(r.Max.X, p.area.Max.X)
	r.Max.Y = math.Min(r.Max.Y, p.area.Max.Y)
	return r
}

// Neighbors returns the valid coordinates among the eight cells
// surrounding c, in deterministic row-major order.
func (p *Partition) Neighbors(c Coord) []Coord {
	out := make([]Coord, 0, 8)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			n := Coord{c.X + dx, c.Y + dy}
			if p.Valid(n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// SearchArea is the rectangle of grid cells that participate in a route
// search. The paper's default confinement is the smallest rectangle
// covering the source and destination cells; Expand grows it by a margin
// of cells for re-tries.
type SearchArea struct {
	Min, Max Coord // inclusive corner cells
}

// NewSearchArea returns the smallest cell rectangle covering a and b.
func NewSearchArea(a, b Coord) SearchArea {
	return SearchArea{
		Min: Coord{min(a.X, b.X), min(a.Y, b.Y)},
		Max: Coord{max(a.X, b.X), max(a.Y, b.Y)},
	}
}

// GlobalSearchArea covers the entire partition, used when a confined
// search fails or the source lacks destination location information.
func GlobalSearchArea(p *Partition) SearchArea {
	return SearchArea{Min: Coord{0, 0}, Max: Coord{p.Cols() - 1, p.Rows() - 1}}
}

// Contains reports whether cell c participates in the search.
func (s SearchArea) Contains(c Coord) bool {
	return c.X >= s.Min.X && c.X <= s.Max.X && c.Y >= s.Min.Y && c.Y <= s.Max.Y
}

// Expand grows the area by n cells on every side, clipped to the partition.
func (s SearchArea) Expand(n int, p *Partition) SearchArea {
	return SearchArea{
		Min: Coord{clamp(s.Min.X-n, 0, p.Cols()-1), clamp(s.Min.Y-n, 0, p.Rows()-1)},
		Max: Coord{clamp(s.Max.X+n, 0, p.Cols()-1), clamp(s.Max.Y+n, 0, p.Rows()-1)},
	}
}

// Cells returns the number of cells inside the search area.
func (s SearchArea) Cells() int {
	return (s.Max.X - s.Min.X + 1) * (s.Max.Y - s.Min.Y + 1)
}

// String formats the search area as its corner cells.
func (s SearchArea) String() string {
	return fmt.Sprintf("[%v..%v]", s.Min, s.Max)
}
