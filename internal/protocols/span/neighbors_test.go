package span

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"ecgrid/internal/hostid"
	"ecgrid/internal/radio"
)

// TestHelloNeighborsStrictlyAscending checks the contract receivers rely
// on when they keep a HELLO's neighbor list and binary-search it: every
// list a host sends is strictly ascending, so also free of duplicates.
func TestHelloNeighborsStrictlyAscending(t *testing.T) {
	tb := newTestbed(t)
	// Seven hosts in mutual range, added in an order unrelated to where
	// they sit, so neighbors are first heard out of ID order.
	for _, x := range []float64{400, 100, 250, 175, 325, 150, 375} {
		tb.add(x, 500)
	}
	longest := 0
	tb.channel.Sniffer = func(f *radio.Frame, at float64) {
		m, ok := f.Payload.(*Hello)
		if !ok {
			return
		}
		for i := 1; i < len(m.Neighbors); i++ {
			if m.Neighbors[i-1] >= m.Neighbors[i] {
				t.Fatalf("host %v at %.3f sent neighbors %v: not strictly ascending", m.ID, at, m.Neighbors)
			}
		}
		longest = max(longest, len(m.Neighbors))
	}
	tb.start()
	tb.engine.Run(30)
	if longest < 5 {
		t.Fatalf("longest HELLO neighbor list has %d entries; the topology should give every host 6", longest)
	}
}

// refNeighbor, refUncoveredPair and refCoveredByCoordinator are Span's
// coordinator rule over the map-based neighbor table it used before the
// table became an ID-sorted slice: the reference the slice
// implementation must agree with.
type refNeighbor struct {
	coordinator bool
	seen        float64
	neighbors   map[hostid.ID]bool
}

func refUncoveredPair(table map[hostid.ID]*refNeighbor, now, ttl float64, skip hostid.ID) bool {
	var ids []hostid.ID
	for id, n := range table {
		if now-n.seen <= ttl {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			u, v := table[ids[i]], table[ids[j]]
			if u.neighbors[ids[j]] || v.neighbors[ids[i]] {
				continue
			}
			if refCoveredByCoordinator(table, now, ttl, ids[i], ids[j], skip) {
				continue
			}
			return true
		}
	}
	return false
}

func refCoveredByCoordinator(table map[hostid.ID]*refNeighbor, now, ttl float64, a, b, skip hostid.ID) bool {
	for cid, c := range table {
		if cid == skip || !c.coordinator || now-c.seen > ttl {
			continue
		}
		if c.neighbors[a] && c.neighbors[b] {
			return true
		}
	}
	return false
}

// TestCoordinatorRuleMatchesMapReference fills a host's neighbor table
// through handleHello with randomized HELLOs — arrival order, refreshes,
// coordinator flags, neighbor lists, ages past NeighborTTL — and requires
// uncoveredPair, coveredByCoordinator and pruneNeighbors to agree with
// the map-based reference on every table.
func TestCoordinatorRuleMatchesMapReference(t *testing.T) {
	const universe = 14 // host IDs 0..13; the host under test is 0
	rng := rand.New(rand.NewPCG(1, 2))
	counts := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		tb := newTestbed(t)
		p := tb.add(500, 500)
		ttl := p.opt.NeighborTTL
		now := p.host.Now()
		table := make(map[hostid.ID]*refNeighbor)

		// Each ID heard once, in random order, then some heard again
		// with a new list (a refresh replaces the kept list).
		order := rng.Perm(universe - 1)[:rng.IntN(universe-1)]
		for range len(order) / 2 {
			order = append(order, order[rng.IntN(len(order))])
		}
		for _, id := range order {
			m := &Hello{ID: hostid.ID(id + 1), Coordinator: rng.IntN(3) == 0}
			ref := &refNeighbor{coordinator: m.Coordinator, neighbors: make(map[hostid.ID]bool)}
			density := rng.Float64()
			for o := hostid.ID(0); o < universe; o++ {
				if o != m.ID && rng.Float64() < density {
					m.Neighbors = append(m.Neighbors, o)
					ref.neighbors[o] = true
				}
			}
			p.handleHello(m)
			// Age the entry; about a quarter are past the TTL.
			seen := now - rng.Float64()*ttl*4/3
			p.neighbor(m.ID).seen = seen
			ref.seen = seen
			table[m.ID] = ref
		}
		if !slices.IsSortedFunc(p.neighbors, func(a, b neighborInfo) int { return cmp.Compare(a.id, b.id) }) {
			t.Fatalf("trial %d: neighbor table not sorted by ID", trial)
		}

		for _, skip := range []hostid.ID{hostid.None, p.host.ID(), hostid.ID(1 + rng.IntN(universe-1))} {
			got, want := p.uncoveredPair(skip), refUncoveredPair(table, now, ttl, skip)
			if got != want {
				t.Fatalf("trial %d: uncoveredPair(skip %v) = %v, reference %v", trial, skip, got, want)
			}
			counts[got]++
			for k := 0; k < 10; k++ {
				a, b := hostid.ID(rng.IntN(universe)), hostid.ID(rng.IntN(universe))
				if got, want := p.coveredByCoordinator(a, b, skip), refCoveredByCoordinator(table, now, ttl, a, b, skip); got != want {
					t.Fatalf("trial %d: coveredByCoordinator(%v, %v, skip %v) = %v, reference %v", trial, a, b, skip, got, want)
				}
			}
		}

		p.pruneNeighbors()
		var wantIDs []hostid.ID
		for id, n := range table {
			if now-n.seen <= ttl {
				wantIDs = append(wantIDs, id)
			}
		}
		slices.Sort(wantIDs)
		var gotIDs []hostid.ID
		for _, n := range p.neighbors {
			gotIDs = append(gotIDs, n.id)
		}
		if !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("trial %d: after pruning the table holds %v, want %v", trial, gotIDs, wantIDs)
		}
	}
	if counts[true] < 50 || counts[false] < 50 {
		t.Fatalf("uncoveredPair answers %v: the random tables do not exercise both outcomes", counts)
	}
}
