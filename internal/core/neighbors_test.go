package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
	"ecgrid/internal/routing"
)

// refGreedy is greedyNeighbor over the map-keyed neighbor-gateway table
// ECGRID kept before the table became a cell-sorted slice: keys sorted
// by (X, Y), the first cell at the winning distance keeps the slot.
func refGreedy(table map[grid.Coord]neighborGW, my, target grid.Coord, now, ttl float64) (hostid.ID, grid.Coord, bool) {
	cells := make([]grid.Coord, 0, len(table))
	for c := range table {
		cells = append(cells, c)
	}
	slices.SortFunc(cells, func(a, b grid.Coord) int {
		if a.X != b.X {
			return a.X - b.X
		}
		return a.Y - b.Y
	})
	var gw hostid.ID
	var next grid.Coord
	best, found := my.ChebyshevDist(target), false
	for _, c := range cells {
		n := table[c]
		if now-n.seen > ttl {
			continue
		}
		if d := c.ChebyshevDist(target); d < best {
			best, gw, next, found = d, n.id, c, true
		}
	}
	return gw, next, found
}

// TestNeighborTableOrderAndGreedyTieBreak drives a gateway's
// neighbor-gateway table with random gflag HELLOs from other grids
// (inserts and refreshes), ageing and TxFailed removals. After every
// step the table must iterate in strictly ascending (X, Y) order and
// hold exactly what a map-keyed reference holds, and greedyNeighbor —
// including its equal-distance tie-break — must pick what the
// map-based reference picks.
func TestNeighborTableOrderAndGreedyTieBreak(t *testing.T) {
	tb := newTestbed(t)
	gw := tb.add(DefaultOptions(), nil, 450, 450, 500)
	tb.start()
	tb.engine.Run(5)
	if !gw.IsGateway() {
		t.Fatal("setup: lone host is not its grid's gateway")
	}
	// The engine stays at this instant: running it would deliver the
	// MAC's own TxFailed for unicasts to the made-up gateways below.
	now := tb.engine.Now()
	my := gw.host.Cell()
	ttl := gw.opt.NeighborGWTTL
	ref := make(map[grid.Coord]neighborGW)
	rng := rand.New(rand.NewPCG(3, 4))
	for step := 0; step < 400; step++ {
		switch r := rng.IntN(10); {
		case r < 7: // gflag HELLO from another grid: insert or refresh
			c := grid.Coord{X: rng.IntN(10), Y: rng.IntN(10)}
			if c == my {
				continue
			}
			id := hostid.ID(100 + rng.IntN(12))
			gw.handleHello(&routing.Hello{ID: id, Grid: c, GFlag: true})
			ref[c] = neighborGW{cell: c, id: id, seen: now}
		case r < 9: // a data unicast to some cached gateway died
			dst := hostid.ID(100 + rng.IntN(12))
			data := &routing.Data{
				Packet:     pkt(1, step, gw.host.ID(), 99, now),
				TargetGrid: grid.Coord{X: 9, Y: 9},
				DestGrid:   grid.Coord{X: 9, Y: 9},
				HasDest:    true,
			}
			gw.TxFailed(&radio.Frame{Kind: "data", Src: gw.host.ID(), Dst: dst, Bytes: 600, Payload: data})
			for c, n := range ref {
				if n.id == dst {
					delete(ref, c)
				}
			}
		default: // age an entry, perhaps past the TTL
			if len(gw.neighbors) == 0 {
				continue
			}
			n := &gw.neighbors[rng.IntN(len(gw.neighbors))]
			n.seen = now - rng.Float64()*2*ttl
			ref[n.cell] = *n
		}

		for i := 1; i < len(gw.neighbors); i++ {
			if a, b := gw.neighbors[i-1].cell, gw.neighbors[i].cell; a.X > b.X || a.X == b.X && a.Y >= b.Y {
				t.Fatalf("step %d: table out of (X, Y) order at %d: %v then %v",
					step, i, gw.neighbors[i-1].cell, gw.neighbors[i].cell)
			}
		}
		if len(gw.neighbors) != len(ref) {
			t.Fatalf("step %d: table holds %d cells, reference %d", step, len(gw.neighbors), len(ref))
		}
		for _, n := range gw.neighbors {
			if ref[n.cell] != n {
				t.Fatalf("step %d: table has %+v, reference %+v", step, n, ref[n.cell])
			}
		}
		for k := 0; k < 5; k++ {
			target := grid.Coord{X: rng.IntN(10), Y: rng.IntN(10)}
			id, next, ok := gw.greedyNeighbor(target)
			wid, wnext, wok := refGreedy(ref, my, target, now, ttl)
			if id != wid || next != wnext || ok != wok {
				t.Fatalf("step %d: greedyNeighbor(%v) = %v/%v/%v, reference %v/%v/%v",
					step, target, id, next, ok, wid, wnext, wok)
			}
		}
	}
}
