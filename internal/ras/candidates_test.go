package ras

import (
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
}

func (s *loose) NearIDs(p geom.Point, r float64, dst []hostid.ID) []hostid.ID {
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
// the in-range hosts — out-of-cell hosts, out-of-range hosts, unknown
// and detached IDs — must wake exactly the hosts the full-population
// sweep wakes and consult DropHook for the same targets in the same
// order, while probing fewer hosts.
func TestPageGridSupersetMatchesFullSweep(t *testing.T) {
	type outcome struct {
		wakes  []hostid.ID
		hooked []hostid.ID
		probes uint64
		drops  uint64
	}
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
		for i := 0; i < 80; i++ {
			id := hostid.ID(i)
			if id == 7 {
				continue // an ID the stub returns but no switch ever had
			}
			var p geom.Point
			if i < 20 { // a 4×5 lattice filling cell (3,4)
				p = geom.Point{X: 305 + float64(i%4)*30, Y: 402 + float64(i/4)*24}
			} else { // scattered over the area
				p = geom.Point{X: float64((i * 137) % 1000), Y: float64((i * 251) % 1000)}
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
		// Two pagers: one inside the cell, one on its corner, so range
		// and cell membership both prune.
		b.PageGrid(geom.Point{X: 310, Y: 405}, grid.Coord{X: 3, Y: 4})
		e.Schedule(0.5, func() { b.PageGrid(geom.Point{X: 400, Y: 500}, grid.Coord{X: 3, Y: 4}) })
		e.Run(1)
		out.probes, out.drops = b.GridProbes, b.PagesDropped
		return out
	}

	ref, got := run(false), run(true)
	if len(ref.wakes) == 0 || len(ref.hooked) < 3 || ref.drops == 0 {
		t.Fatalf("reference exercised too little: %d wakes, %d hook calls, %d drops",
			len(ref.wakes), len(ref.hooked), ref.drops)
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
	if ref.probes != 2*78 {
		t.Errorf("full sweep probed %d hosts over two pages, want %d", ref.probes, 2*78)
	}
}
