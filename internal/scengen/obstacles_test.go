package scengen

import (
	"math"
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/sim"
)

func wall() *ObstacleMap {
	// A vertical wall from (400,0)–(420,800), half-attenuating.
	return NewObstacleMap(&Propagation{Obstacles: []Obstacle{
		{MinX: 400, MinY: 0, MaxX: 420, MaxY: 800, Atten: 0.5},
	}})
}

func TestEffectiveRangeThroughWall(t *testing.T) {
	m := wall()
	from, to := geom.Point{X: 300, Y: 100}, geom.Point{X: 500, Y: 100}
	if got := m.EffectiveRange(250, from, to); got != 125 {
		t.Fatalf("range through the wall = %v, want 125", got)
	}
	// Around the wall: line of sight above its top edge.
	from, to = geom.Point{X: 300, Y: 900}, geom.Point{X: 500, Y: 900}
	if got := m.EffectiveRange(250, from, to); got != 250 {
		t.Fatalf("range around the wall = %v, want 250", got)
	}
}

func TestDeliverable(t *testing.T) {
	m := wall()
	from := geom.Point{X: 300, Y: 100}
	// 200 m through the wall: beyond the shrunk 125 m range.
	if m.Deliverable(250, from, geom.Point{X: 500, Y: 100}) {
		t.Fatal("delivery through the wall beyond the attenuated range")
	}
	// 110 m through the wall: still within 125 m.
	if !m.Deliverable(250, from, geom.Point{X: 410, Y: 100}) {
		t.Fatal("short hop through the wall rejected")
	}
	// 200 m with clear line of sight.
	if !m.Deliverable(250, from, geom.Point{X: 100, Y: 100}) {
		t.Fatal("unobstructed delivery rejected")
	}
}

func TestFullBlockZeroesRange(t *testing.T) {
	m := NewObstacleMap(&Propagation{Obstacles: []Obstacle{
		{MinX: 400, MinY: 0, MaxX: 420, MaxY: 1000, Atten: 1},
	}})
	if got := m.EffectiveRange(250, geom.Point{X: 0, Y: 1}, geom.Point{X: 1000, Y: 1}); got != 0 {
		t.Fatalf("full-block obstacle left range %v", got)
	}
	if m.Deliverable(250, geom.Point{X: 390, Y: 500}, geom.Point{X: 430, Y: 500}) {
		t.Fatal("delivery across a full-block obstacle")
	}
}

func TestOverlappingObstaclesCompound(t *testing.T) {
	m := NewObstacleMap(&Propagation{Obstacles: []Obstacle{
		{MinX: 400, MinY: 0, MaxX: 420, MaxY: 1000, Atten: 0.5},
		{MinX: 600, MinY: 0, MaxX: 620, MaxY: 1000, Atten: 0.5},
	}})
	if got := m.EffectiveRange(400, geom.Point{X: 300, Y: 5}, geom.Point{X: 700, Y: 5}); got != 100 {
		t.Fatalf("two half-walls leave range %v, want 100", got)
	}
}

func TestSegmentCrossings(t *testing.T) {
	o := &Obstacle{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200}
	cases := []struct {
		name string
		a, b geom.Point
		want bool
	}{
		{"through", geom.Point{X: 50, Y: 150}, geom.Point{X: 250, Y: 150}, true},
		{"diagonal corner cut", geom.Point{X: 90, Y: 120}, geom.Point{X: 120, Y: 90}, true},
		{"miss above", geom.Point{X: 50, Y: 250}, geom.Point{X: 250, Y: 250}, false},
		{"miss beside", geom.Point{X: 250, Y: 50}, geom.Point{X: 250, Y: 250}, false},
		{"stops short", geom.Point{X: 0, Y: 150}, geom.Point{X: 50, Y: 150}, false},
		{"endpoint inside", geom.Point{X: 150, Y: 150}, geom.Point{X: 400, Y: 150}, true},
		{"both inside", geom.Point{X: 120, Y: 120}, geom.Point{X: 180, Y: 180}, true},
		{"grazes edge", geom.Point{X: 0, Y: 100}, geom.Point{X: 300, Y: 100}, true},
		{"degenerate outside", geom.Point{X: 50, Y: 50}, geom.Point{X: 50, Y: 50}, false},
		{"degenerate inside", geom.Point{X: 150, Y: 150}, geom.Point{X: 150, Y: 150}, true},
	}
	for _, c := range cases {
		if got := segmentCrossesRect(c.a, c.b, o); got != c.want {
			t.Errorf("%s: segmentCrossesRect = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestReachesTouchingSquare: Reaches is true exactly when an obstacle
// meets the closed square from ± (r + reachGuard), a touching edge
// included, on each of the four sides.
func TestReachesTouchingSquare(t *testing.T) {
	const r = 250.0
	from := geom.Point{X: 1000, Y: 1000}
	h := r + reachGuard
	lo, hi := from.X-h, from.X+h // from.X == from.Y
	for _, tc := range []struct {
		name string
		o    Obstacle
		want bool
	}{
		{"touches east", Obstacle{MinX: hi, MinY: 900, MaxX: hi + 50, MaxY: 1100}, true},
		{"clear of east", Obstacle{MinX: math.Nextafter(hi, math.Inf(1)), MinY: 900, MaxX: hi + 50, MaxY: 1100}, false},
		{"touches west", Obstacle{MinX: lo - 50, MinY: 900, MaxX: lo, MaxY: 1100}, true},
		{"clear of west", Obstacle{MinX: lo - 50, MinY: 900, MaxX: math.Nextafter(lo, math.Inf(-1)), MaxY: 1100}, false},
		{"touches north", Obstacle{MinX: 900, MinY: hi, MaxX: 1100, MaxY: hi + 50}, true},
		{"clear of north", Obstacle{MinX: 900, MinY: math.Nextafter(hi, math.Inf(1)), MaxX: 1100, MaxY: hi + 50}, false},
		{"touches south", Obstacle{MinX: 900, MinY: lo - 50, MaxX: 1100, MaxY: lo}, true},
		{"touches corner", Obstacle{MinX: hi, MinY: hi, MaxX: hi + 10, MaxY: hi + 10}, true},
		{"beyond corner", Obstacle{MinX: hi, MinY: math.Nextafter(hi, math.Inf(1)), MaxX: hi + 10, MaxY: hi + 10}, false},
		{"covers sender", Obstacle{MinX: 990, MinY: 990, MaxX: 1010, MaxY: 1010}, true},
		// Inside the square but outside the range disc: reported, since
		// the square is the promise, not the disc.
		{"square corner only", Obstacle{MinX: 1200, MinY: 1200, MaxX: 1240, MaxY: 1240}, true},
	} {
		m := NewObstacleMap(&Propagation{Obstacles: []Obstacle{tc.o}})
		if got := m.Reaches(from, r); got != tc.want {
			t.Errorf("%s: Reaches = %v, want %v", tc.name, got, tc.want)
		}
	}
	if NewObstacleMap(&Propagation{}).Reaches(from, r) {
		t.Error("an empty map reaches a sender")
	}
}

// TestReachFalseMeansDeliverable: when Reaches rules a sender out, every
// receiver within r of it is Deliverable at the base range, here on
// random senders around two obstacles and receivers spread over the
// disc, its rim included.
func TestReachFalseMeansDeliverable(t *testing.T) {
	const r = 250.0
	m := NewObstacleMap(&Propagation{Obstacles: []Obstacle{
		{MinX: 2200, MinY: 0, MaxX: 2300, MaxY: 3500, Atten: 0.6},
		{MinX: 0, MinY: 4100, MaxX: 4000, MaxY: 4200, Atten: 1},
	}})
	rng := sim.NewRNG(7)
	out, in := 0, 0
	for i := 0; i < 4000; i++ {
		from := geom.Point{X: rng.Uniform("x", 0, 5000), Y: rng.Uniform("y", 0, 5000)}
		if m.Reaches(from, r) {
			in++
			continue
		}
		out++
		for k := 0; k < 16; k++ {
			a := rng.Uniform("angle", 0, 2*math.Pi)
			d := r
			if k%2 == 1 {
				d = rng.Uniform("dist", 0, r)
			}
			to := geom.Point{X: from.X + d*math.Cos(a), Y: from.Y + d*math.Sin(a)}
			if from.Dist2(to) > r*r {
				continue // rounding pushed the rim point out of range
			}
			if !m.Deliverable(r, from, to) {
				t.Fatalf("sender %v out of reach, yet %v (%.3f m away) is not deliverable", from, to, from.Dist(to))
			}
		}
	}
	if out == 0 || in == 0 {
		t.Fatalf("%d senders out of reach, %d in reach: want both", out, in)
	}
}
