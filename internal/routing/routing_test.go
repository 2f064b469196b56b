package routing

import (
	"testing"
	"testing/quick"

	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
)

func TestTableLookupMissing(t *testing.T) {
	tbl := NewTable(10)
	if _, ok := tbl.Lookup(1, 0); ok {
		t.Fatal("lookup on empty table succeeded")
	}
}

func TestTableUpdateAndLookup(t *testing.T) {
	tbl := NewTable(10)
	e := Entry{Dst: 1, NextGrid: grid.Coord{X: 2, Y: 3}, Seq: 5, Hops: 2}
	if !tbl.Update(e, 0) {
		t.Fatal("first update rejected")
	}
	got, ok := tbl.Lookup(1, 5)
	if !ok || got.NextGrid != (grid.Coord{X: 2, Y: 3}) || got.Seq != 5 {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableFreshnessRules(t *testing.T) {
	tbl := NewTable(0) // no expiry
	tbl.Update(Entry{Dst: 1, Seq: 5, Hops: 3, NextGrid: grid.Coord{X: 1, Y: 0}}, 0)

	// Staler seq rejected.
	if tbl.Update(Entry{Dst: 1, Seq: 4, Hops: 1, NextGrid: grid.Coord{X: 9, Y: 9}}, 1) {
		t.Fatal("staler seq accepted")
	}
	// Same seq, more hops rejected.
	if tbl.Update(Entry{Dst: 1, Seq: 5, Hops: 4, NextGrid: grid.Coord{X: 9, Y: 9}}, 1) {
		t.Fatal("longer route with same seq accepted")
	}
	// Same seq, fewer hops accepted.
	if !tbl.Update(Entry{Dst: 1, Seq: 5, Hops: 2, NextGrid: grid.Coord{X: 2, Y: 0}}, 1) {
		t.Fatal("shorter route with same seq rejected")
	}
	// Higher seq always accepted, even with more hops.
	if !tbl.Update(Entry{Dst: 1, Seq: 6, Hops: 9, NextGrid: grid.Coord{X: 3, Y: 0}}, 1) {
		t.Fatal("fresher seq rejected")
	}
	got, _ := tbl.Lookup(1, 1)
	if got.Seq != 6 || got.NextGrid != (grid.Coord{X: 3, Y: 0}) {
		t.Fatalf("final entry = %+v", got)
	}
}

func TestTableSeqNeverDecreasesProperty(t *testing.T) {
	f := func(seqs []uint8) bool {
		tbl := NewTable(0)
		var maxSeq uint32
		for i, s := range seqs {
			tbl.Update(Entry{Dst: 1, Seq: uint32(s), Hops: i % 5}, float64(i))
			if e, ok := tbl.Lookup(1, float64(i)); ok {
				if e.Seq < maxSeq {
					return false
				}
				maxSeq = e.Seq
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableExpiry(t *testing.T) {
	tbl := NewTable(10)
	tbl.Update(Entry{Dst: 1, Seq: 1}, 0)
	if _, ok := tbl.Lookup(1, 9); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := tbl.Lookup(1, 11); ok {
		t.Fatal("entry survived past TTL")
	}
	// An expired entry is replaced regardless of freshness.
	tbl.Update(Entry{Dst: 2, Seq: 9}, 0)
	if !tbl.Update(Entry{Dst: 2, Seq: 1}, 20) {
		t.Fatal("stale-seq update rejected for expired entry")
	}
}

func TestTableTouch(t *testing.T) {
	tbl := NewTable(10)
	tbl.Update(Entry{Dst: 1, Seq: 1}, 0)
	tbl.Touch(1, 8)
	if _, ok := tbl.Lookup(1, 15); !ok {
		t.Fatal("touched entry expired")
	}
	tbl.Touch(99, 8) // no-op on missing entry
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable(0)
	tbl.Update(Entry{Dst: 1, Seq: 1}, 0)
	tbl.Remove(1)
	if _, ok := tbl.Lookup(1, 0); ok {
		t.Fatal("removed entry still present")
	}
}

func TestTableSnapshotAndMerge(t *testing.T) {
	tbl := NewTable(10)
	tbl.Update(Entry{Dst: 3, Seq: 1}, 0)
	tbl.Update(Entry{Dst: 1, Seq: 2}, 0)
	tbl.Update(Entry{Dst: 2, Seq: 3}, 0)
	snap := tbl.Snapshot(5)
	if len(snap) != 3 || snap[0].Dst != 1 || snap[1].Dst != 2 || snap[2].Dst != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Expired entries are excluded from snapshots.
	snap = tbl.Snapshot(20)
	if len(snap) != 0 {
		t.Fatalf("snapshot after expiry = %+v", snap)
	}

	dst := NewTable(10)
	dst.Update(Entry{Dst: 1, Seq: 9}, 0) // fresher than snapshot's seq 2
	dst.Merge([]Entry{{Dst: 1, Seq: 2}, {Dst: 5, Seq: 1}}, 1)
	if e, _ := dst.Lookup(1, 1); e.Seq != 9 {
		t.Fatal("merge overwrote fresher entry")
	}
	if _, ok := dst.Lookup(5, 1); !ok {
		t.Fatal("merge dropped new entry")
	}
}

func TestHostTable(t *testing.T) {
	ht := NewHostTable()
	ht.Note(3, HostActive, 1)
	ht.Note(1, HostSleeping, 2)
	if ht.Len() != 2 {
		t.Fatalf("Len = %d", ht.Len())
	}
	e, ok := ht.Status(1)
	if !ok || e.Status != HostSleeping || e.LastSeen != 2 {
		t.Fatalf("Status(1) = %+v, %v", e, ok)
	}
	if _, ok := ht.Status(9); ok {
		t.Fatal("unknown host present")
	}
	ht.Note(1, HostActive, 3) // update
	if e, _ := ht.Status(1); e.Status != HostActive {
		t.Fatal("Note did not update status")
	}
	ids := ht.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("IDs = %v", ids)
	}
	ht.Remove(3)
	if ht.Len() != 1 {
		t.Fatal("Remove failed")
	}
}

func TestHostTableSnapshotMerge(t *testing.T) {
	a := NewHostTable()
	a.Note(1, HostActive, 5)
	a.Note(2, HostSleeping, 3)
	snap := a.Snapshot()
	if len(snap) != 2 || snap[0].ID != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	b := NewHostTable()
	b.Note(1, HostSleeping, 9) // more recent than a's
	b.Merge(snap)
	if e, _ := b.Status(1); e.LastSeen != 9 {
		t.Fatal("merge overwrote fresher row")
	}
	if e, _ := b.Status(2); e.Status != HostSleeping {
		t.Fatal("merge dropped row")
	}
}

func TestDupCache(t *testing.T) {
	c := NewDupCache(10)
	if c.Seen(1, 100, 0) {
		t.Fatal("fresh record reported seen")
	}
	if !c.Seen(1, 100, 5) {
		t.Fatal("repeat within TTL not detected")
	}
	if c.Seen(1, 101, 5) {
		t.Fatal("different id reported seen")
	}
	if c.Seen(2, 100, 5) {
		t.Fatal("different src reported seen")
	}
	// After TTL the same pair counts as new.
	if c.Seen(1, 100, 16) {
		t.Fatal("expired record still reported seen")
	}
	if c.Len() == 0 {
		t.Fatal("cache empty")
	}
}

func TestDupCachePanicsOnBadTTL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDupCache(0) did not panic")
		}
	}()
	NewDupCache(0)
}

func TestBufferFIFOAndOverflow(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Push(1, &DataPacket{Seq: i})
	}
	if b.Pending(1) != 3 {
		t.Fatalf("Pending = %d, want 3", b.Pending(1))
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", b.Dropped())
	}
	got := b.PopAll(1)
	if len(got) != 3 || got[0].Seq != 2 || got[2].Seq != 4 {
		t.Fatalf("PopAll = %+v (oldest must be dropped first)", got)
	}
	if b.Pending(1) != 0 || b.Destinations() != 0 {
		t.Fatal("buffer not empty after PopAll")
	}
}

func TestBufferPerDestinationIsolation(t *testing.T) {
	b := NewBuffer(2)
	b.Push(1, &DataPacket{Seq: 1})
	b.Push(2, &DataPacket{Seq: 2})
	if b.Destinations() != 2 {
		t.Fatalf("Destinations = %d", b.Destinations())
	}
	if len(b.PopAll(1)) != 1 || b.Pending(2) != 1 {
		t.Fatal("queues interfered")
	}
}

func TestBufferPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuffer(0) did not panic")
		}
	}()
	NewBuffer(0)
}

func TestAODVTable(t *testing.T) {
	tbl := NewAODVTable(10)
	tbl.Update(AODVEntry{Dst: 1, NextHop: 5, Seq: 2, Hops: 3}, 0)
	e, ok := tbl.Lookup(1, 5)
	if !ok || e.NextHop != 5 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := tbl.Lookup(1, 20); ok {
		t.Fatal("expired AODV entry returned")
	}
	tbl.Update(AODVEntry{Dst: 1, NextHop: 6, Seq: 3}, 20)
	tbl.Touch(1, 29)
	if _, ok := tbl.Lookup(1, 38); !ok {
		t.Fatal("touched AODV entry expired")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	tbl.Remove(1)
	if tbl.Len() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestAODVFreshness(t *testing.T) {
	tbl := NewAODVTable(0)
	tbl.Update(AODVEntry{Dst: 1, NextHop: 5, Seq: 5, Hops: 2}, 0)
	if tbl.Update(AODVEntry{Dst: 1, NextHop: 9, Seq: 4, Hops: 1}, 0) {
		t.Fatal("staler AODV seq accepted")
	}
	if !tbl.Update(AODVEntry{Dst: 1, NextHop: 9, Seq: 5, Hops: 1}, 0) {
		t.Fatal("shorter AODV route rejected")
	}
}

func TestAODVRemoveVia(t *testing.T) {
	tbl := NewAODVTable(0)
	tbl.Update(AODVEntry{Dst: 1, NextHop: 5, Seq: 1}, 0)
	tbl.Update(AODVEntry{Dst: 2, NextHop: 5, Seq: 1}, 0)
	tbl.Update(AODVEntry{Dst: 3, NextHop: 6, Seq: 1}, 0)
	tbl.RemoveVia(5)
	for _, dst := range []hostid.ID{1, 2} {
		if _, ok := tbl.Lookup(dst, 0); ok {
			t.Errorf("route to %d via the removed hop survived", dst)
		}
	}
	if e, ok := tbl.Lookup(3, 0); !ok || e.NextHop != 6 {
		t.Errorf("route to 3 via another hop = %+v, %v", e, ok)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len after RemoveVia = %d", tbl.Len())
	}
}

func TestRetireAndTransferSizes(t *testing.T) {
	r := &Retire{Routes: make([]Entry, 3), Hosts: make([]HostEntry, 2)}
	if got := r.SizeBytes(); got != RetireBase+5*RetireEntry {
		t.Fatalf("Retire.SizeBytes = %d", got)
	}
	tr := &Transfer{Routes: make([]Entry, 1)}
	if got := tr.SizeBytes(); got != RetireBase+RetireEntry {
		t.Fatalf("Transfer.SizeBytes = %d", got)
	}
}

func TestMessageStrings(t *testing.T) {
	h := &Hello{ID: 1, Grid: grid.Coord{X: 2, Y: 3}, GFlag: true, Level: 2, Dist: 7.5}
	if h.String() == "" {
		t.Fatal("empty Hello string")
	}
	rq := &RREQ{Src: 1, Dst: 2, BcastID: 7}
	if rq.String() == "" {
		t.Fatal("empty RREQ string")
	}
	rp := &RREP{Src: 1, Dst: 2}
	if rp.String() == "" {
		t.Fatal("empty RREP string")
	}
	p := &DataPacket{Flow: 1, Seq: 2, Src: 3, Dst: 4}
	if p.String() != "pkt{flow=1 seq=2 host-3->host-4}" {
		t.Fatalf("DataPacket.String = %q", p.String())
	}
	_ = hostid.Broadcast
}
