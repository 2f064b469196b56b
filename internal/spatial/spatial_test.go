package spatial

import (
	"math"
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// lcg is a tiny deterministic generator for test positions; the stdlib
// sources would also do, but a three-line generator makes the fixture
// values obvious from the test alone.
type lcg struct{ s uint64 }

func (r *lcg) next() float64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return float64(r.s>>11) / float64(1<<53)
}

// never is the NextExit oracle of a host that provably stays put.
func never(float64, geom.Rect) float64 { return math.Inf(1) }

// bruteNearby is the reference the index is checked against: the exact
// in-range set by linear scan.
func bruteNearby(pts map[hostid.ID]geom.Point, p geom.Point, radius float64) map[hostid.ID]bool {
	in := make(map[hostid.ID]bool)
	for id, q := range pts {
		if q.Dist2(p) <= radius*radius {
			in[id] = true
		}
	}
	return in
}

func TestNearbySupersetAndSorted(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[int](engine, 125, 31.25)
	rng := &lcg{s: 7}
	pts := make(map[hostid.ID]geom.Point)
	for id := hostid.ID(0); id < 120; id++ {
		p := geom.Point{X: rng.next() * 1000, Y: rng.next() * 1000}
		pts[id] = p
		pp := p // capture
		ix.Insert(id, int(id), func() geom.Point { return pp }, never)
	}
	if ix.Len() != 120 {
		t.Fatalf("Len = %d, want 120", ix.Len())
	}

	var dst []Candidate[int]
	for trial := 0; trial < 50; trial++ {
		q := geom.Point{X: rng.next()*1400 - 200, Y: rng.next()*1400 - 200}
		radius := 50 + rng.next()*300
		dst = ix.Nearby(q, radius, dst[:0])

		got := make(map[hostid.ID]bool)
		for i, cd := range dst {
			if i > 0 && dst[i-1].ID >= cd.ID {
				t.Fatalf("trial %d: results not strictly ID-sorted at %d: %v then %v", trial, i, dst[i-1].ID, cd.ID)
			}
			got[cd.ID] = true
			if cd.Payload != int(cd.ID) {
				t.Fatalf("trial %d: payload %d under ID %v", trial, cd.Payload, cd.ID)
			}
		}
		for id := range bruteNearby(pts, q, radius) {
			if !got[id] {
				t.Fatalf("trial %d: in-range host %v missing from candidates (q=%v r=%v)", trial, id, q, radius)
			}
		}
	}
}

func TestMovingHostRebuckets(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[struct{}](engine, 100, 10)

	// A host crossing many cells: x = 20 t, so it traverses a 100 m cell
	// every 5 s. The oracle is the exact ray exit of the loose bounds.
	pos := func() geom.Point { return geom.Point{X: 20 * engine.Now(), Y: 50} }
	exit := func(t float64, b geom.Rect) float64 {
		return t + (b.Max.X-20*t)/20
	}
	ix.Insert(1, struct{}{}, pos, exit)
	// A second, stationary host far away: must never appear near the mover.
	ix.Insert(2, struct{}{}, func() geom.Point { return geom.Point{X: 5000, Y: 5000} }, never)

	for _, at := range []float64{3, 17, 42, 99} {
		at := at
		engine.At(at, func() {
			p := pos()
			got := ix.Nearby(p, 30, nil)
			found := false
			for _, cd := range got {
				if cd.ID == 2 {
					t.Errorf("t=%v: distant host in candidates near %v", at, p)
				}
				found = found || cd.ID == 1
			}
			if !found {
				t.Errorf("t=%v: moving host missing from query at its own position %v", at, p)
			}
		})
	}
	engine.Run(100)
}

func TestRemoveStopsTracking(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[struct{}](engine, 100, 10)
	ix.Insert(1, struct{}{}, func() geom.Point { return geom.Point{X: 5, Y: 5} }, never)
	ix.Remove(1)
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after Remove, want 0", ix.Len())
	}
	if got := ix.Nearby(geom.Point{X: 5, Y: 5}, 50, nil); len(got) != 0 {
		t.Fatalf("removed host still returned: %v", got)
	}
	ix.Remove(1) // unknown ID: must be a no-op
	// Re-inserting the ID must be legal after removal.
	ix.Insert(1, struct{}{}, func() geom.Point { return geom.Point{X: 5, Y: 5} }, never)
}

func TestDuplicateInsertPanics(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[struct{}](engine, 100, 10)
	ix.Insert(1, struct{}{}, func() geom.Point { return geom.Point{} }, never)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	ix.Insert(1, struct{}{}, func() geom.Point { return geom.Point{} }, never)
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ side, slack float64 }{{0, 1}, {1, 0}, {-5, 1}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndex(side=%v, slack=%v) did not panic", tc.side, tc.slack)
				}
			}()
			NewIndex[struct{}](sim.NewEngine(), tc.side, tc.slack)
		}()
	}
}

// TestGridGrowth drives the dense bucket array through several
// re-allocations by inserting hosts at ever-farther cells (including
// negative coordinates) and checks nothing is lost in the copies.
func TestGridGrowth(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[int](engine, 10, 1)
	pts := make(map[hostid.ID]geom.Point)
	coords := []float64{5, -5, 95, -95, 1005, -1005, 4005, -4005}
	id := hostid.ID(0)
	for _, x := range coords {
		for _, y := range coords {
			p := geom.Point{X: x, Y: y}
			pts[id] = p
			pp := p
			ix.Insert(id, int(id), func() geom.Point { return pp }, never)
			id++
		}
	}
	for hid, p := range pts {
		got := ix.Nearby(p, 1, nil)
		found := false
		for _, cd := range got {
			found = found || cd.ID == hid
		}
		if !found {
			t.Fatalf("host %v at %v lost after grid growth", hid, p)
		}
	}
}

func TestPointSet(t *testing.T) {
	ps := NewPointSet(100)
	if ps.AnyWithin(geom.Point{}, 1e9) {
		t.Fatal("empty set reported a point")
	}
	a := geom.Point{X: 10, Y: 10}
	b := geom.Point{X: 500, Y: 500}
	ps.Add(1, a)
	ps.Add(2, b)
	if ps.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ps.Len())
	}
	if !ps.AnyWithin(geom.Point{X: 40, Y: 50}, 50) {
		t.Error("point at exactly radius distance not found") // dist(10,10 → 40,50) = 50
	}
	if ps.AnyWithin(geom.Point{X: 250, Y: 250}, 100) {
		t.Error("found a point nowhere near the query")
	}
	ps.Remove(1, a)
	if ps.AnyWithin(geom.Point{X: 40, Y: 50}, 50) {
		t.Error("removed point still found")
	}
	if !ps.AnyWithin(b, 0) {
		t.Error("zero-radius query at a stored point must hit it")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of unknown point did not panic")
		}
	}()
	ps.Remove(99, geom.Point{})
}
