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

func (e AODVEntry) route() (hostid.ID, uint32, int, float64) {
	return e.Dst, e.Seq, e.Hops, e.UpdatedAt
}

func (e AODVEntry) stamped(now float64) AODVEntry {
	e.UpdatedAt = now
	return e
}

// AODVTable is a host-based routing table with Table's TTL expiry and
// freshness rules, keyed on next-hop hosts instead of grids.
type AODVTable struct{ table[AODVEntry] }

// NewAODVTable creates a table whose entries expire ttl seconds after
// their last update. Non-positive ttl disables expiry.
func NewAODVTable(ttl float64) *AODVTable {
	return &AODVTable{table[AODVEntry]{ttl: ttl}}
}

// RemoveVia deletes every entry whose next hop is the given host (used
// when a neighbor is detected gone).
func (t *AODVTable) RemoveVia(hop hostid.ID) {
	for dst, e := range t.entries { //simlint:ordered deletion-only sweep
		if e.NextHop == hop {
			delete(t.entries, dst)
		}
	}
}
