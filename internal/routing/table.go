package routing

import (
	"cmp"
	"slices"

	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
)

// Entry is one grid routing-table row: to reach Dst, forward to the
// gateway of NextGrid. Seq carries AODV-style freshness; fresher (higher
// Seq) routes replace staler ones, and equal-freshness routes with fewer
// hops win.
type Entry struct {
	Dst       hostid.ID
	NextGrid  grid.Coord
	DestGrid  grid.Coord // grid where Dst was last known to live
	Seq       uint32
	Hops      int
	UpdatedAt float64
}

func (e Entry) route() (hostid.ID, uint32, int, float64) { return e.Dst, e.Seq, e.Hops, e.UpdatedAt }

func (e Entry) stamped(now float64) Entry {
	e.UpdatedAt = now
	return e
}

// row is a routing-table row type, Entry or AODVEntry: the table reads
// its destination and freshness and restamps it on update.
type row[R any] interface {
	route() (dst hostid.ID, seq uint32, hops int, updatedAt float64)
	stamped(now float64) R
}

// table holds the TTL expiry and freshness rules of both routing tables;
// only the row type differs. Its map is made on the first Update.
type table[R row[R]] struct {
	ttl     float64
	entries map[hostid.ID]R
}

// Lookup returns the live entry for dst. Expired entries are removed and
// reported absent.
func (t *table[R]) Lookup(dst hostid.ID, now float64) (R, bool) {
	e, ok := t.entries[dst]
	if ok && t.expired(e, now) {
		delete(t.entries, dst)
		ok = false
	}
	if !ok {
		var none R
		return none, false
	}
	return e, true
}

func (t *table[R]) expired(e R, now float64) bool {
	_, _, _, at := e.route()
	return t.ttl > 0 && now-at > t.ttl
}

// Update installs e if it is fresher than the existing entry: a higher
// sequence number always wins; an equal sequence wins with fewer hops; an
// expired or missing entry is always replaced. It reports whether the
// table changed.
func (t *table[R]) Update(e R, now float64) bool {
	e = e.stamped(now)
	dst, seq, hops, _ := e.route()
	old, ok := t.entries[dst]
	if ok && !t.expired(old, now) {
		_, oldSeq, oldHops, _ := old.route()
		if seq < oldSeq {
			return false
		}
		if seq == oldSeq && hops > oldHops {
			return false
		}
	}
	if t.entries == nil {
		t.entries = make(map[hostid.ID]R)
	}
	t.entries[dst] = e
	return true
}

// Touch refreshes the TTL of dst's entry if present (used when a route
// forwards traffic successfully).
func (t *table[R]) Touch(dst hostid.ID, now float64) {
	if e, ok := t.entries[dst]; ok && !t.expired(e, now) {
		t.entries[dst] = e.stamped(now)
	}
}

// Remove deletes the entry for dst.
func (t *table[R]) Remove(dst hostid.ID) {
	delete(t.entries, dst)
}

// Len returns the number of stored (possibly stale) entries.
func (t *table[R]) Len() int { return len(t.entries) }

// Table is a grid routing table with per-entry TTL expiry. The zero value
// is not usable; construct with NewTable.
type Table struct{ table[Entry] }

// NewTable creates a table whose entries expire ttl seconds after their
// last update. A non-positive ttl disables expiry.
func NewTable(ttl float64) *Table {
	return &Table{table[Entry]{ttl: ttl}}
}

// Snapshot returns the live entries sorted by destination, for transfer
// in RETIRE/TRANSFER messages. The returned slice is owned by the caller.
func (t *Table) Snapshot(now float64) []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries { //simlint:ordered output is sorted by Dst below

		if !t.expired(e, now) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Dst, b.Dst) })
	return out
}

// Merge installs every entry of snapshot that is fresher than what the
// table holds (successor gateways inherit their predecessor's table).
func (t *Table) Merge(snapshot []Entry, now float64) {
	for _, e := range snapshot {
		t.Update(e, now)
	}
}

// HostStatus is a host-table row's liveness state.
type HostStatus int

const (
	// HostActive: the host is awake (can receive directly).
	HostActive HostStatus = iota
	// HostSleeping: the host is in sleep mode (page before sending).
	HostSleeping
)

// HostEntry is one row of the gateway's host table (§3): the hosts known
// to live in the gateway's grid and their transmit/sleep status.
type HostEntry struct {
	ID       hostid.ID
	Status   HostStatus
	LastSeen float64
}

// HostTable is the gateway's membership table. Entries age out with
// status-dependent TTLs: an active member re-HELLOs every period, so its
// entry goes stale quickly once it leaves; a sleeping member is silent by
// design and its entry must survive until its next dwell wake-up.
type HostTable struct {
	activeTTL float64 // expiry for HostActive rows (0 = never)
	sleepTTL  float64 // expiry for HostSleeping rows (0 = never)
	hosts     map[hostid.ID]HostEntry
}

// NewHostTable returns an empty host table without expiry (rows live
// until removed). Protocols that track live membership use
// NewHostTableTTL.
func NewHostTable() *HostTable {
	return NewHostTableTTL(0, 0)
}

// NewHostTableTTL returns an empty host table whose rows expire
// activeTTL (active) or sleepTTL (sleeping) seconds after last being
// seen. Zero disables expiry for that status. Its map is made on the
// first row written.
func NewHostTableTTL(activeTTL, sleepTTL float64) *HostTable {
	return &HostTable{activeTTL: activeTTL, sleepTTL: sleepTTL}
}

// put writes row e, making the map on first use.
func (h *HostTable) put(e HostEntry) {
	if h.hosts == nil {
		h.hosts = make(map[hostid.ID]HostEntry)
	}
	h.hosts[e.ID] = e
}

// Fresh returns the entry for id if it has not expired at time now.
//
// An Active row past activeTTL is demoted to Sleeping rather than
// deleted (when sleepTTL allows): a member that went silent either left
// the grid or fell asleep with its notice lost, and presuming sleep keeps
// it reachable through paging. Rows past sleepTTL are removed.
func (h *HostTable) Fresh(id hostid.ID, now float64) (HostEntry, bool) {
	e, ok := h.hosts[id]
	if !ok {
		return HostEntry{}, false
	}
	if e.Status == HostActive && h.activeTTL > 0 && now-e.LastSeen > h.activeTTL {
		if h.sleepTTL > h.activeTTL && now-e.LastSeen <= h.sleepTTL {
			e.Status = HostSleeping
			h.hosts[id] = e
		} else {
			delete(h.hosts, id)
			return HostEntry{}, false
		}
	}
	if e.Status == HostSleeping && h.sleepTTL > 0 && now-e.LastSeen > h.sleepTTL {
		delete(h.hosts, id)
		return HostEntry{}, false
	}
	return e, true
}

// Note records that host id was seen with the given status.
func (h *HostTable) Note(id hostid.ID, status HostStatus, now float64) {
	h.put(HostEntry{ID: id, Status: status, LastSeen: now})
}

// Status returns the host's entry if present.
func (h *HostTable) Status(id hostid.ID) (HostEntry, bool) {
	e, ok := h.hosts[id]
	return e, ok
}

// Remove deletes a host (it left the grid or died).
func (h *HostTable) Remove(id hostid.ID) {
	delete(h.hosts, id)
}

// Len returns the number of known hosts.
func (h *HostTable) Len() int { return len(h.hosts) }

// Snapshot returns the rows sorted by ID, for table transfer.
func (h *HostTable) Snapshot() []HostEntry {
	out := make([]HostEntry, 0, len(h.hosts))
	for _, e := range h.hosts { //simlint:ordered output is sorted by ID below

		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b HostEntry) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Merge installs rows, keeping the most recently seen on conflict.
func (h *HostTable) Merge(rows []HostEntry) {
	for _, e := range rows {
		if old, ok := h.hosts[e.ID]; !ok || e.LastSeen > old.LastSeen {
			h.put(e)
		}
	}
}

// IDs returns the member IDs sorted ascending.
func (h *HostTable) IDs() []hostid.ID {
	out := make([]hostid.ID, 0, len(h.hosts))
	for id := range h.hosts { //simlint:ordered output is sorted below

		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
