package grid

import (
	"math"
	"testing"
	"testing/quick"

	"ecgrid/internal/geom"
)

func paperPartition() *Partition {
	// The paper's setup: 1000×1000 m area, grid size 100 m.
	return NewPartition(geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 1000, Y: 1000}), 100)
}

func TestRecommendedSize(t *testing.T) {
	// d = √2·250/3 ≈ 117.85; the paper rounds down to 100.
	d := RecommendedSize(250)
	if math.Abs(d-117.8511) > 0.001 {
		t.Fatalf("RecommendedSize(250) = %v, want ≈117.851", d)
	}
}

// The paper's reachability guarantee: with d ≤ √2·r/3, a gateway at the
// center of a cell reaches any point of its eight neighboring cells.
func TestCenterReachesAllNeighborCells(t *testing.T) {
	const r = 250.0
	d := RecommendedSize(r)
	// Worst case: center of a cell to the far corner of a diagonal
	// neighbor = 1.5·√2·d.
	worst := 1.5 * math.Sqrt2 * d
	if worst > r+1e-9 {
		t.Fatalf("worst-case distance %v exceeds range %v", worst, r)
	}
	// And any larger d breaks the guarantee.
	if w := 1.5 * math.Sqrt2 * (d * 1.01); w <= r {
		t.Fatalf("d is not tight: %v still within range", w)
	}
}

func TestPartitionDimensions(t *testing.T) {
	p := paperPartition()
	if p.Cols() != 10 || p.Rows() != 10 {
		t.Fatalf("Cols,Rows = %d,%d, want 10,10", p.Cols(), p.Rows())
	}
	if p.CellSize() != 100 {
		t.Fatalf("CellSize = %v", p.CellSize())
	}
	if got := p.Area(); got.Width() != 1000 || got.Height() != 1000 {
		t.Fatalf("Area = %v", got)
	}
}

func TestPartitionNonDividingArea(t *testing.T) {
	p := NewPartition(geom.NewRect(geom.Point{}, geom.Point{X: 250, Y: 150}), 100)
	if p.Cols() != 3 || p.Rows() != 2 {
		t.Fatalf("Cols,Rows = %d,%d, want 3,2", p.Cols(), p.Rows())
	}
	// Bounds of an edge cell clip to the area.
	b := p.Bounds(Coord{2, 1})
	if b.Max.X != 250 || b.Max.Y != 150 {
		t.Fatalf("edge cell bounds = %v", b)
	}
}

func TestCellOf(t *testing.T) {
	p := paperPartition()
	cases := []struct {
		pt   geom.Point
		want Coord
	}{
		{geom.Point{X: 0, Y: 0}, Coord{0, 0}},
		{geom.Point{X: 99.99, Y: 99.99}, Coord{0, 0}},
		{geom.Point{X: 100, Y: 0}, Coord{1, 0}},
		{geom.Point{X: 550, Y: 350}, Coord{5, 3}},
		{geom.Point{X: 999.99, Y: 999.99}, Coord{9, 9}},
		// Clamping: the exact max corner and beyond map to the last cell.
		{geom.Point{X: 1000, Y: 1000}, Coord{9, 9}},
		{geom.Point{X: -5, Y: 2000}, Coord{0, 9}},
	}
	for _, c := range cases {
		if got := p.CellOf(c.pt); got != c.want {
			t.Errorf("CellOf(%v) = %v, want %v", c.pt, got, c.want)
		}
	}
}

func TestCenterRoundTripsProperty(t *testing.T) {
	p := paperPartition()
	f := func(x, y uint8) bool {
		c := Coord{int(x) % p.Cols(), int(y) % p.Rows()}
		return p.CellOf(p.Center(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEveryPointMapsToContainingCellProperty(t *testing.T) {
	p := paperPartition()
	f := func(xr, yr uint16) bool {
		pt := geom.Point{X: float64(xr) / 65535 * 1000, Y: float64(yr) / 65535 * 1000}
		c := p.CellOf(pt)
		return p.Valid(c) && p.Bounds(c).Contains(pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCenter(t *testing.T) {
	p := paperPartition()
	if got := p.Center(Coord{0, 0}); got != (geom.Point{X: 50, Y: 50}) {
		t.Fatalf("Center(0,0) = %v", got)
	}
	if got := p.Center(Coord{9, 9}); got != (geom.Point{X: 950, Y: 950}) {
		t.Fatalf("Center(9,9) = %v", got)
	}
}

func TestNeighborsInterior(t *testing.T) {
	p := paperPartition()
	n := p.Neighbors(Coord{5, 5})
	if len(n) != 8 {
		t.Fatalf("interior cell has %d neighbors, want 8", len(n))
	}
	for _, c := range n {
		if !c.IsNeighbor(Coord{5, 5}) {
			t.Errorf("%v is not adjacent to (5,5)", c)
		}
	}
}

func TestNeighborsCornerAndEdge(t *testing.T) {
	p := paperPartition()
	if n := p.Neighbors(Coord{0, 0}); len(n) != 3 {
		t.Fatalf("corner cell has %d neighbors, want 3", len(n))
	}
	if n := p.Neighbors(Coord{0, 5}); len(n) != 5 {
		t.Fatalf("edge cell has %d neighbors, want 5", len(n))
	}
}

func TestIsNeighbor(t *testing.T) {
	c := Coord{3, 3}
	if c.IsNeighbor(c) {
		t.Error("cell is neighbor of itself")
	}
	if !c.IsNeighbor(Coord{4, 4}) || !c.IsNeighbor(Coord{2, 3}) {
		t.Error("adjacent cells not recognized")
	}
	if c.IsNeighbor(Coord{5, 3}) {
		t.Error("cell two columns away recognized as neighbor")
	}
}

func TestChebyshevDist(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{1, 1}, 1},
		{Coord{1, 1}, Coord{5, 3}, 4},
		{Coord{5, 3}, Coord{1, 1}, 4},
	}
	for _, c := range cases {
		if got := c.a.ChebyshevDist(c.b); got != c.want {
			t.Errorf("ChebyshevDist(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValid(t *testing.T) {
	p := paperPartition()
	for _, c := range []Coord{{0, 0}, {9, 9}, {5, 0}} {
		if !p.Valid(c) {
			t.Errorf("Valid(%v) = false", c)
		}
	}
	for _, c := range []Coord{{-1, 0}, {10, 0}, {0, 10}, {-1, -1}} {
		if p.Valid(c) {
			t.Errorf("Valid(%v) = true", c)
		}
	}
}

func TestSearchAreaCoversEndpoints(t *testing.T) {
	// Paper example: S in (1,1), D in (5,3) → rectangle (1,1)-(5,3).
	s := NewSearchArea(Coord{1, 1}, Coord{5, 3})
	if s.Min != (Coord{1, 1}) || s.Max != (Coord{5, 3}) {
		t.Fatalf("SearchArea = %v", s)
	}
	if !s.Contains(Coord{3, 2}) || !s.Contains(Coord{1, 1}) || !s.Contains(Coord{5, 3}) {
		t.Error("search area does not contain interior/corner cells")
	}
	if s.Contains(Coord{0, 2}) || s.Contains(Coord{6, 3}) || s.Contains(Coord{3, 0}) {
		t.Error("search area contains outside cells")
	}
	if s.Cells() != 15 {
		t.Fatalf("Cells() = %d, want 15", s.Cells())
	}
}

func TestSearchAreaOrderIndependent(t *testing.T) {
	a := NewSearchArea(Coord{5, 3}, Coord{1, 1})
	b := NewSearchArea(Coord{1, 1}, Coord{5, 3})
	if a != b {
		t.Fatalf("search area depends on argument order: %v vs %v", a, b)
	}
}

func TestSearchAreaExpand(t *testing.T) {
	p := paperPartition()
	s := NewSearchArea(Coord{1, 1}, Coord{2, 2}).Expand(1, p)
	if s.Min != (Coord{0, 0}) || s.Max != (Coord{3, 3}) {
		t.Fatalf("Expand = %v", s)
	}
	// Expansion clips at the partition border.
	s = NewSearchArea(Coord{0, 0}, Coord{9, 9}).Expand(5, p)
	if s.Min != (Coord{0, 0}) || s.Max != (Coord{9, 9}) {
		t.Fatalf("clipped Expand = %v", s)
	}
}

func TestGlobalSearchArea(t *testing.T) {
	p := paperPartition()
	g := GlobalSearchArea(p)
	if g.Cells() != 100 {
		t.Fatalf("global area covers %d cells, want 100", g.Cells())
	}
	f := func(x, y uint8) bool {
		return g.Contains(Coord{int(x) % 10, int(y) % 10})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSearchAreaContainsEndpointsProperty(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := Coord{int(ax), int(ay)}
		b := Coord{int(bx), int(by)}
		s := NewSearchArea(a, b)
		return s.Contains(a) && s.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPartitionPanics(t *testing.T) {
	area := geom.NewRect(geom.Point{}, geom.Point{X: 10, Y: 10})
	for name, fn := range map[string]func(){
		"zero size":  func() { NewPartition(area, 0) },
		"empty area": func() { NewPartition(geom.Rect{}, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCoordAndSearchAreaString(t *testing.T) {
	if s := (Coord{2, 3}).String(); s != "(2, 3)" {
		t.Errorf("Coord.String() = %q", s)
	}
	if s := NewSearchArea(Coord{1, 1}, Coord{2, 2}).String(); s != "[(1, 1)..(2, 2)]" {
		t.Errorf("SearchArea.String() = %q", s)
	}
}

// TestCellMargin: CellMargin returns CellOf's cell and the distance to
// the nearest side a point can leave through; sides on the area border
// do not count, so a clamped point beyond the border measures to the
// cell's inner sides, and a 1×1 partition has no side at all.
func TestCellMargin(t *testing.T) {
	p := paperPartition()
	for _, tc := range []struct {
		pt   geom.Point
		cell Coord
		m    float64
	}{
		{geom.Point{X: 150, Y: 170}, Coord{1, 1}, 30},
		{geom.Point{X: 120, Y: 150}, Coord{1, 1}, 20},
		{geom.Point{X: 300, Y: 450}, Coord{3, 4}, 0}, // on a cell line
		{geom.Point{X: 10, Y: 450}, Coord{0, 4}, 50}, // west side is the border
		{geom.Point{X: 5, Y: 995}, Coord{0, 9}, 95},  // north-west corner cell
		{geom.Point{X: -40, Y: 450}, Coord{0, 4}, 50},
		{geom.Point{X: 1030, Y: 1080}, Coord{9, 9}, 130},
	} {
		c, m := p.CellMargin(tc.pt)
		if c != tc.cell || c != p.CellOf(tc.pt) || math.Abs(m-tc.m) > 1e-9 {
			t.Errorf("CellMargin(%v) = %v, %v; want %v, %v", tc.pt, c, m, tc.cell, tc.m)
		}
	}
	one := NewPartition(geom.NewRect(geom.Point{}, geom.Point{X: 100, Y: 100}), 100)
	if c, m := one.CellMargin(geom.Point{X: 40, Y: 60}); c != (Coord{}) || !math.IsInf(m, 1) {
		t.Errorf("1×1 partition: CellMargin = %v, %v; want (0, 0), +Inf", c, m)
	}
	// Property: every point within the margin of pt shares its cell.
	f := func(x, y, dx, dy float64) bool {
		pt := geom.Point{X: math.Mod(math.Abs(x), 1200) - 100, Y: math.Mod(math.Abs(y), 1200) - 100}
		c, m := p.CellMargin(pt)
		if m <= 1e-6 {
			return true
		}
		n := math.Hypot(dx, dy)
		if n == 0 || math.IsNaN(n) || math.IsInf(n, 0) {
			return true
		}
		s := (m - 1e-6) / n
		q := geom.Point{X: pt.X + dx*s, Y: pt.Y + dy*s}
		return p.CellOf(q) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
