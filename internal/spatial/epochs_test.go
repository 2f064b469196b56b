package spatial

import (
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// coverAt is shorthand for a fresh CoverEpochs scan.
func coverAt(ix *Index[int], p geom.Point, r float64) []CellEpoch {
	return ix.CoverEpochs(p, r, nil)
}

// coversEqual reports whether two covers are identical cell for cell.
func coversEqual(a, b []CellEpoch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coverDiff counts cells whose epoch (or identity) changed between two
// covers of the same query.
func coverDiff(a, b []CellEpoch) int {
	if len(a) != len(b) {
		return len(a) + len(b)
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func TestCoverEpochsIncludesEmptyCellsAndIsStable(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[int](engine, 125, 31.25)
	q := geom.Point{X: 500, Y: 500}

	// An empty index still yields a cover (the empty cells at their
	// implicit epoch 0): a host arriving in any of them must be able to
	// change the cover.
	c0 := coverAt(ix, q, 200)
	if len(c0) == 0 {
		t.Fatal("cover over an empty index is empty; empty cells must be covered")
	}
	for _, ce := range c0 {
		if ce.Epoch != 0 {
			t.Fatalf("empty cell (%d,%d) at epoch %d, want 0", ce.CX, ce.CY, ce.Epoch)
		}
	}
	// No events: the cover is bit-stable across calls.
	if !coversEqual(c0, coverAt(ix, q, 200)) {
		t.Fatal("cover changed with no membership events")
	}
}

func TestCoverEpochsBumpOnInsertRemove(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[int](engine, 125, 31.25)
	q := geom.Point{X: 500, Y: 500}
	at := func() []CellEpoch { return coverAt(ix, q, 200) }

	before := at()
	pos := geom.Point{X: 510, Y: 490}
	ix.Insert(7, 7, func() geom.Point { return pos }, never)
	after := at()
	if d := coverDiff(before, after); d != 1 {
		t.Fatalf("Insert changed %d covered cells, want exactly the arrival cell", d)
	}

	before = after
	ix.Remove(7)
	after = at()
	if d := coverDiff(before, after); d != 1 {
		t.Fatalf("Remove changed %d covered cells, want 1", d)
	}

	// A host bucketed far outside the query disc never perturbs its cover.
	before = after
	far := geom.Point{X: 5000, Y: 5000}
	ix.Insert(8, 8, func() geom.Point { return far }, never)
	ix.Remove(8)
	if !coversEqual(before, at()) {
		t.Fatal("events outside the cover changed it")
	}
}

func TestCoverEpochsBumpOnRebucket(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[int](engine, 125, 31.25)

	// A host walking +x at 10 m/s: starts in the cell of x=100, exits
	// its loose bounds (x=156.25) at t≈5.6s and re-buckets into the cell
	// of x≈156.
	exit := func(t float64, bounds geom.Rect) float64 {
		x := 100 + 10*t
		if x >= bounds.Max.X {
			return t
		}
		return t + (bounds.Max.X-x)/10
	}
	ix.Insert(3, 3, func() geom.Point {
		return geom.Point{X: 100 + 10*engine.Now(), Y: 100}
	}, exit)

	oldCover := coverAt(ix, geom.Point{X: 100, Y: 100}, 60)
	newCover := coverAt(ix, geom.Point{X: 250, Y: 100}, 60)
	engine.Run(20) // drive the scheduled re-bucket events

	if coversEqual(oldCover, coverAt(ix, geom.Point{X: 100, Y: 100}, 60)) {
		t.Fatal("re-bucket did not bump the departed cell's epoch")
	}
	if coversEqual(newCover, coverAt(ix, geom.Point{X: 250, Y: 100}, 60)) {
		t.Fatal("re-bucket did not bump the arrival cell's epoch")
	}
}

func TestGridGrowthPreservesEpochs(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[int](engine, 125, 31.25)

	// Churn a neighborhood so its cells carry non-zero epochs.
	home := geom.Point{X: 200, Y: 200}
	for id := hostid.ID(0); id < 10; id++ {
		p := geom.Point{X: 150 + 10*float64(id), Y: 200}
		ix.Insert(id, int(id), func() geom.Point { return p }, never)
	}
	before := coverAt(ix, home, 300)
	nonzero := false
	for _, ce := range before {
		nonzero = nonzero || ce.Epoch != 0
	}
	if !nonzero {
		t.Fatal("fixture produced no non-zero epochs")
	}

	// Force the dense cell box to grow in every direction; growth must
	// relocate the counters with their cells, not reset them.
	corners := []geom.Point{{X: -4000, Y: -4000}, {X: 9000, Y: -4000}, {X: -4000, Y: 9000}, {X: 9000, Y: 9000}}
	for i, p := range corners {
		pp := p
		ix.Insert(hostid.ID(100+i), 0, func() geom.Point { return pp }, never)
	}
	if !coversEqual(before, coverAt(ix, home, 300)) {
		t.Fatal("grid growth moved cell epochs: cover over an untouched neighborhood changed")
	}

	// And the epoch order is monotonic through growth: another event in
	// the home neighborhood still reads as exactly one bumped cell.
	ix.Remove(5)
	if d := coverDiff(before, coverAt(ix, home, 300)); d != 1 {
		t.Fatalf("post-growth Remove changed %d covered cells, want 1", d)
	}
}

// TestCoverMatchesScanCells pins the contract rxcache relies on: the
// cover lists exactly the cells a NearbyAppend of the same query scans,
// so a host admitted by the scan is always bucketed inside the cover.
func TestCoverMatchesScanCells(t *testing.T) {
	engine := sim.NewEngine()
	ix := NewIndex[int](engine, 125, 31.25)
	rng := &lcg{s: 99}
	for id := hostid.ID(0); id < 200; id++ {
		p := geom.Point{X: rng.next() * 1000, Y: rng.next() * 1000}
		pp := p
		ix.Insert(id, int(id), func() geom.Point { return pp }, never)
	}
	for trial := 0; trial < 40; trial++ {
		q := geom.Point{X: rng.next()*1200 - 100, Y: rng.next()*1200 - 100}
		radius := 30 + rng.next()*300
		cover := coverAt(ix, q, radius)
		covered := make(map[[2]int32]bool, len(cover))
		for _, ce := range cover {
			covered[[2]int32{ce.CX, ce.CY}] = true
		}
		for _, cd := range ix.NearbyAppend(q, radius, nil) {
			e := ix.byID[cd.ID]
			if !covered[[2]int32{e.key.cx, e.key.cy}] {
				t.Fatalf("trial %d: candidate %d bucketed at (%d,%d) outside the cover",
					trial, cd.ID, e.key.cx, e.key.cy)
			}
		}
	}
}
