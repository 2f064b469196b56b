package routing

import "ecgrid/internal/hostid"

// AODVEntry is a host-by-host routing-table row used by the AODV layer
// that runs underneath GAF: to reach Dst, forward to NextHop.
type AODVEntry struct {
	Dst       hostid.ID
	NextHop   hostid.ID
	Seq       uint32
	Hops      int
	UpdatedAt float64
}

// AODVTable is a host-based routing table with TTL expiry and AODV
// freshness rules, mirroring Table but keyed on next-hop hosts instead of
// grids.
type AODVTable struct {
	ttl     float64
	entries map[hostid.ID]AODVEntry
}

// NewAODVTable creates a table whose entries expire ttl seconds after
// their last update. Non-positive ttl disables expiry.
func NewAODVTable(ttl float64) *AODVTable {
	return &AODVTable{ttl: ttl, entries: make(map[hostid.ID]AODVEntry)}
}

// Lookup returns the live entry for dst.
func (t *AODVTable) Lookup(dst hostid.ID, now float64) (AODVEntry, bool) {
	e, ok := t.entries[dst]
	if !ok {
		return AODVEntry{}, false
	}
	if t.expired(e, now) {
		delete(t.entries, dst)
		return AODVEntry{}, false
	}
	return e, true
}

func (t *AODVTable) expired(e AODVEntry, now float64) bool {
	return t.ttl > 0 && now-e.UpdatedAt > t.ttl
}

// Update installs e under the same freshness rules as Table.Update and
// reports whether the table changed.
func (t *AODVTable) Update(e AODVEntry, now float64) bool {
	e.UpdatedAt = now
	old, ok := t.entries[e.Dst]
	if ok && !t.expired(old, now) {
		if e.Seq < old.Seq {
			return false
		}
		if e.Seq == old.Seq && e.Hops > old.Hops {
			return false
		}
	}
	t.entries[e.Dst] = e
	return true
}

// Touch refreshes the TTL of dst's entry if present.
func (t *AODVTable) Touch(dst hostid.ID, now float64) {
	if e, ok := t.entries[dst]; ok && !t.expired(e, now) {
		e.UpdatedAt = now
		t.entries[dst] = e
	}
}

// Remove deletes the entry for dst.
func (t *AODVTable) Remove(dst hostid.ID) { delete(t.entries, dst) }

// RemoveVia deletes every entry whose next hop is the given host (used
// when a neighbor is detected gone).
func (t *AODVTable) RemoveVia(hop hostid.ID) {
	for dst, e := range t.entries { //simlint:ordered deletion-only sweep
		if e.NextHop == hop {
			delete(t.entries, dst)
		}
	}
}

// Len returns the number of stored entries.
func (t *AODVTable) Len() int { return len(t.entries) }
