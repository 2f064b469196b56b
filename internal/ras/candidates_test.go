package ras

import (
	"math"
	"slices"
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// loose is a Candidates stub shaped like the radio's spatial index: a
// sorted superset of the hosts within range, padded with hosts beyond
// it and with IDs the bus has never seen (or has detached).
type loose struct {
	pos     map[hostid.ID]geom.Point // every host ever placed, attached or not
	pad     float64                  // extra reach beyond the query radius
	unknown []hostid.ID              // IDs with no switch, always returned
	queries []disc                   // every query, in order
}

// disc is one NearIDs query.
type disc struct {
	p geom.Point
	r float64
}

func (s *loose) NearIDs(p geom.Point, r float64, dst []hostid.ID) []hostid.ID {
	s.queries = append(s.queries, disc{p, r})
	start := len(dst)
	for id, q := range s.pos {
		if p.Dist(q) <= r+s.pad {
			dst = append(dst, id)
		}
	}
	dst = append(dst, s.unknown...)
	slices.Sort(dst[start:])
	return dst
}

// TestPageGridSupersetMatchesFullSweep: a grid page fed a superset of
// the hosts it may wake — out-of-cell hosts, out-of-range hosts, unknown
// and detached IDs — must wake exactly the hosts the full-population
// sweep wakes and consult DropHook for the same targets in the same
// order, while probing fewer hosts. Pages of an interior cell draw on
// the cell's circumradius around its center; pages of an edge and a
// corner cell draw on the pager's range, because they own hosts that
// stand beyond the area border, farther from the cell center than the
// circumradius (and than the stub's padding).
func TestPageGridSupersetMatchesFullSweep(t *testing.T) {
	type outcome struct {
		wakes   []hostid.ID
		hooked  []hostid.ID
		probes  uint64
		drops   uint64
		queries []disc
	}
	// Each page: the pager's position and the cell paged.
	pages := []struct {
		from geom.Point
		c    grid.Coord
	}{
		{geom.Point{X: 310, Y: 405}, grid.Coord{X: 3, Y: 4}},  // interior, pager inside
		{geom.Point{X: 400, Y: 500}, grid.Coord{X: 3, Y: 4}},  // interior, pager on its corner
		{geom.Point{X: -60, Y: 450}, grid.Coord{X: 0, Y: 4}},  // west edge, pager beyond the border
		{geom.Point{X: 980, Y: 1030}, grid.Coord{X: 9, Y: 9}}, // north-east corner
	}
	const hosts = 100
	run := func(superset bool) outcome {
		e := sim.NewEngine()
		part := grid.NewPartition(geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000}), 100)
		src := &loose{pos: map[hostid.ID]geom.Point{}, pad: 120, unknown: []hostid.ID{7, 500, 1001}}
		var near Candidates = src
		full := &population{}
		if !superset {
			near = full
		}
		b := NewBus(e, part, near, 100, DefaultLatency)
		full.b = b

		var out outcome
		for i := 0; i < hosts; i++ {
			id := hostid.ID(i)
			if id == 7 {
				continue // an ID the stub returns but no switch ever had
			}
			var p geom.Point
			switch {
			case i < 20: // a 4×5 lattice filling cell (3,4)
				p = geom.Point{X: 305 + float64(i%4)*30, Y: 402 + float64(i/4)*24}
			case i < 80: // scattered over the area
				p = geom.Point{X: float64((i * 137) % 1000), Y: float64((i * 251) % 1000)}
			case i < 90: // beyond the west border, clamped into cell (0,4)
				p = geom.Point{X: -150 + float64(i%3)*60, Y: 405 + float64(i-80)*9}
			default: // around and beyond the north-east corner, cell (9,9)
				p = geom.Point{X: 930 + float64(i-90)*12, Y: 960 + float64(i%4)*25}
			}
			src.pos[id] = p
			asleep := i%5 != 0
			b.Attach(id, &Switch{
				Position: func() geom.Point { return p },
				Asleep:   func() bool { return asleep },
				Wake: func(WakeReason) {
					asleep = false
					out.wakes = append(out.wakes, id)
				},
			})
		}
		b.Detach(3) // known to the stub, gone from the bus
		calls := 0
		b.DropHook = func(target hostid.ID) bool {
			out.hooked = append(out.hooked, target)
			calls++
			return calls%3 == 0
		}
		for i, pg := range pages {
			e.Schedule(0.5*float64(i), func() { b.PageGrid(pg.from, pg.c) })
		}
		e.Run(float64(len(pages)))
		out.probes, out.drops, out.queries = b.GridProbes, b.PagesDropped, src.queries
		return out
	}

	ref, got := run(false), run(true)
	if len(ref.wakes) == 0 || len(ref.hooked) < 3 || ref.drops == 0 {
		t.Fatalf("reference exercised too little: %d wakes, %d hook calls, %d drops",
			len(ref.wakes), len(ref.hooked), ref.drops)
	}
	for _, id := range []hostid.ID{81, 94} { // asleep beyond the border
		if !slices.Contains(ref.wakes, id) && !slices.Contains(ref.hooked, id) {
			t.Errorf("reference never reached host %v beyond the border", id)
		}
	}
	if !slices.Equal(got.wakes, ref.wakes) {
		t.Errorf("woken hosts = %v, full sweep woke %v", got.wakes, ref.wakes)
	}
	if !slices.Equal(got.hooked, ref.hooked) {
		t.Errorf("DropHook order = %v, full sweep drew %v", got.hooked, ref.hooked)
	}
	if got.drops != ref.drops {
		t.Errorf("PagesDropped = %d, full sweep %d", got.drops, ref.drops)
	}
	if got.probes >= ref.probes {
		t.Errorf("superset probed %d hosts, full sweep %d: no pruning", got.probes, ref.probes)
	}
	if want := uint64(len(pages) * (hosts - 2)); ref.probes != want {
		t.Errorf("full sweep probed %d hosts over %d pages, want %d", ref.probes, len(pages), want)
	}
	d := 100.0 // a variable, so rc rounds as PageGrid's does
	rc := d*math.Sqrt2/2 + cellGuard
	wantQ := []disc{
		{geom.Point{X: 350, Y: 450}, rc}, {geom.Point{X: 350, Y: 450}, rc},
		{pages[2].from, 100}, {pages[3].from, 100},
	}
	if !slices.Equal(got.queries, wantQ) {
		t.Errorf("candidate queries = %v, want %v", got.queries, wantQ)
	}
}
