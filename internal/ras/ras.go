// Package ras models the Remotely Activated Switch of the paper's §2
// (Chiasserini & Rao's RF-tag paging hardware): a tiny always-on receiver
// that can switch a sleeping host's transceiver back on when it hears the
// host's paging sequence.
//
// Two kinds of paging signals exist:
//
//   - a per-host paging sequence, equal to the host's unique ID, which
//     wakes exactly that host ("the gateway will actively wake the host
//     up" before forwarding buffered packets), and
//   - a per-grid broadcast sequence, equal to the grid coordinate, which
//     wakes every sleeping host currently inside that grid (used before
//     gateway handover so all hosts can run the election).
//
// Following the paper, the RAS consumes no accountable energy ("the power
// consumption of RAS is much lower than the transmitting/receiving power
// consumption, and can thus be ignored") and paging delivery takes a
// small fixed latency. Paging signals still respect radio range: a pager
// can only reach switches within its transmission distance.
package ras

import (
	"fmt"
	"math"

	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// Switch is the per-host RAS module: the node layer registers one per
// host. Position is queried at delivery time (hosts move); Wake is
// invoked when a matching paging signal arrives and the host is asleep.
type Switch struct {
	// Position returns the host's current location.
	Position func() geom.Point
	// Asleep reports whether the host is currently in sleep mode. Wake
	// is only delivered to sleeping hosts; paging an active host is a
	// no-op (it is already listening).
	Asleep func() bool
	// Wake brings the host back to active mode. The reason tells the
	// protocol whether it was paged individually or as part of a grid
	// broadcast.
	Wake func(reason WakeReason)
}

// WakeReason says why a sleeping host was woken.
type WakeReason int

const (
	// PagedDirectly means the host's own paging sequence was received
	// (the gateway has traffic for it).
	PagedDirectly WakeReason = iota
	// PagedGrid means the grid's broadcast sequence was received (a
	// gateway election is starting).
	PagedGrid
)

// String names the wake reason.
func (r WakeReason) String() string {
	switch r {
	case PagedDirectly:
		return "paged-directly"
	case PagedGrid:
		return "paged-grid"
	default:
		return fmt.Sprintf("WakeReason(%d)", int(r))
	}
}

// Candidates is where a grid page finds the hosts it may reach: NearIDs
// appends, in ascending ID order, a superset of the hosts lying within r
// of p and returns dst. The radio channel implements it from its spatial
// index (radio.Channel.NearIDs); IDs that have no attached switch are
// allowed and skipped.
type Candidates interface {
	NearIDs(p geom.Point, r float64, dst []hostid.ID) []hostid.ID
}

// Bus is the out-of-band paging medium shared by all hosts.
type Bus struct {
	engine    *sim.Engine
	partition *grid.Partition
	near      Candidates
	rangeM    float64 // paging reach in meters
	latency   float64 // seconds from page to wake
	switches  map[hostid.ID]*Switch

	// cand is PageGrid's candidate scratch, reused across pages so the
	// hot path stays allocation-free.
	cand []hostid.ID

	// PagesSent counts individual paging transmissions, for overhead
	// reporting.
	PagesSent uint64
	// GridPagesSent counts broadcast-sequence transmissions.
	GridPagesSent uint64
	// PagesDropped counts wakeups suppressed by DropHook.
	PagesDropped uint64
	// GridProbes counts the hosts grid pages examined: one per candidate
	// per delivered page. It measures paging work, not model state, so it
	// never reaches stored results.
	GridProbes uint64

	// DropHook, when non-nil, is consulted once for each wakeup the bus
	// would otherwise deliver (the target is in range and asleep);
	// returning true suppresses that wakeup (fault injection: paging
	// loss). Dropped wakeups are counted in PagesDropped.
	DropHook func(target hostid.ID) bool
}

// DefaultLatency is the paging delay: the time for the RAS to receive a
// paging sequence and power the transceiver up. A couple of milliseconds
// is generous for RF-tag hardware and small against packet timescales.
const DefaultLatency = 2e-3

// NewBus creates a paging bus over the given grid partition. near
// supplies grid-page candidates (use the radio channel), rangeM bounds
// paging reach (use the radio range) and latency is the page-to-wake
// delay.
func NewBus(engine *sim.Engine, partition *grid.Partition, near Candidates, rangeM, latency float64) *Bus {
	if near == nil {
		panic("ras: nil candidate source")
	}
	if rangeM <= 0 || latency < 0 {
		panic("ras: invalid range or latency")
	}
	return &Bus{
		engine:    engine,
		partition: partition,
		near:      near,
		rangeM:    rangeM,
		latency:   latency,
		switches:  make(map[hostid.ID]*Switch),
	}
}

// Attach registers a host's switch. Re-attaching replaces the previous
// registration.
func (b *Bus) Attach(id hostid.ID, sw *Switch) {
	if sw == nil || sw.Position == nil || sw.Asleep == nil || sw.Wake == nil {
		panic("ras: incomplete switch registration")
	}
	b.switches[id] = sw
}

// Detach removes a host's switch (battery death).
func (b *Bus) Detach(id hostid.ID) {
	delete(b.switches, id)
}

// Page transmits the paging sequence of the target host from the given
// location. If the target is within paging range and asleep when the
// signal arrives, it wakes with reason PagedDirectly.
func (b *Bus) Page(from geom.Point, target hostid.ID) {
	b.PagesSent++
	b.engine.Schedule(b.latency, func() {
		sw, ok := b.switches[target]
		if !ok {
			return
		}
		if from.Dist(sw.Position()) > b.rangeM {
			return
		}
		if sw.Asleep() {
			if b.DropHook != nil && b.DropHook(target) {
				b.PagesDropped++
				return
			}
			sw.Wake(PagedDirectly)
		}
	})
}

// PageGrid transmits the broadcast sequence of cell c from the given
// location: every sleeping host currently inside c and within paging
// range wakes with reason PagedGrid.
//
// Only candidates that may pass both exact checks below are probed:
// those within the circumradius of c around its center when c is an
// interior cell smaller than the paging reach, and those within paging
// range of the pager otherwise (see pageQuery). They arrive in ascending
// ID order and include every host the exact checks can admit, so the
// hosts woken and the DropHook draws match a sweep over the whole
// population, in the same order.
func (b *Bus) PageGrid(from geom.Point, c grid.Coord) {
	b.GridPagesSent++
	b.engine.Schedule(b.latency, func() {
		p, r := b.pageQuery(from, c)
		b.cand = b.near.NearIDs(p, r, b.cand[:0])
		b.GridProbes += uint64(len(b.cand))
		for _, id := range b.cand {
			sw, ok := b.switches[id]
			if !ok {
				continue
			}
			pos := sw.Position()
			if b.partition.CellOf(pos) != c || from.Dist(pos) > b.rangeM {
				continue
			}
			if sw.Asleep() {
				if b.DropHook != nil && b.DropHook(id) {
					b.PagesDropped++
					continue
				}
				sw.Wake(PagedGrid)
			}
		}
	})
}

// cellGuard (meters) pads a cell's circumradius against rounding in
// CellOf and Center: one millimeter, far above the slop and far below
// cell scale.
const cellGuard = 1e-3

// pageQuery returns the disc a grid page of cell c sent from `from`
// draws its candidates from. A host inside an interior cell lies within
// the cell's circumradius of its center, so when that disc is the
// smaller one it holds every host the page can wake. An edge cell also
// owns the positions beyond the area border that CellOf clamps into it,
// so it keeps the pager's range disc, as does a cell too large for the
// circumradius to beat the range.
func (b *Bus) pageQuery(from geom.Point, c grid.Coord) (geom.Point, float64) {
	part := b.partition
	interior := c.X > 0 && c.X < part.Cols()-1 && c.Y > 0 && c.Y < part.Rows()-1
	if rc := float64(part.CellSize()*math.Sqrt2/2) + cellGuard; interior && rc < b.rangeM {
		return part.Center(c), rc
	}
	return from, b.rangeM
}
