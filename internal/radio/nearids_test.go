package radio

import (
	"slices"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
)

// TestNearIDs checks the grid-page candidate query: at several instants
// of a moving population it must return, in strictly ascending order, a
// superset of the stations truly within r — including every unindexed
// (Mover-less) station and no detached one — and, under BruteForce,
// exactly the attached population.
func TestNearIDs(t *testing.T) {
	for _, brute := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.BruteForce = brute
		r := newCacheRig(cfg)
		const n = 120
		for i := 0; i < n; i++ {
			r.addPacer(hostid.ID(i), float64((i*733)%2000), float64((i*389)%2000),
				float64(i%7-3), float64(i%5-2))
		}
		still := map[hostid.ID]*fakeHost{}
		for i := n; i < n+6; i++ {
			h := &fakeHost{id: hostid.ID(i), pos: geom.Point{X: float64(i * 300 % 2000), Y: 1000},
				battery: energy.NewBattery(energy.PaperModel(), 1e6)}
			still[h.id] = h
			r.channel.Attach(h)
		}
		gone := []hostid.ID{5, 17, n + 2} // two indexed, one unindexed
		for _, id := range gone {
			r.channel.Detach(id)
		}
		attached := func(id hostid.ID) bool { return !slices.Contains(gone, id) }
		pos := func(id hostid.ID) geom.Point {
			if h, ok := still[id]; ok {
				return h.pos
			}
			return r.hosts[id].Position()
		}

		queries := []geom.Point{{X: 0, Y: 0}, {X: 1000, Y: 1000}, {X: 1733, Y: 412}, {X: 2200, Y: -50}}
		checks := 0
		for _, at := range []float64{0.5, 7, 30, 95} {
			r.engine.Schedule(at-r.engine.Now(), func() {
				for _, p := range queries {
					prefix := []hostid.ID{-7}
					got := r.channel.NearIDs(p, cfg.Range, prefix)
					if got[0] != -7 {
						t.Fatalf("brute=%v: NearIDs clobbered the dst prefix", brute)
					}
					got = got[1:]
					if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
						t.Fatalf("brute=%v t=%v p=%v: ids not strictly ascending: %v", brute, at, p, got)
					}
					for id := hostid.ID(0); id < n+6; id++ {
						in := slices.Contains(got, id)
						switch {
						case !attached(id):
							if in {
								t.Errorf("brute=%v t=%v p=%v: detached host %v returned", brute, at, p, id)
							}
						case brute, still[id] != nil:
							if !in {
								t.Errorf("brute=%v t=%v p=%v: attached host %v missing", brute, at, p, id)
							}
						case pos(id).Dist(p) <= cfg.Range && !in:
							t.Errorf("brute=%v t=%v p=%v: in-range host %v missing", brute, at, p, id)
						}
					}
					if !brute && len(got) >= n {
						t.Errorf("t=%v p=%v: index returned %d of %d hosts — no pruning", at, p, len(got), n+6)
					}
					checks++
				}
			})
			r.engine.Run(at)
		}
		if checks != 16 {
			t.Fatalf("brute=%v: ran %d checks, want 16", brute, checks)
		}
	}
}
