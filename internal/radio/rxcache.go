package radio

// The receiver-plane cache: between membership changes and sleep
// transitions a sender's neighborhood is identical frame after frame, so
// startTransmission can replay its last admitted receiver list instead
// of re-running the spatial query, the listening/detached filter, the
// exact distance checks, and the ID-ordering sweep. The design (and the proof
// sketch of byte-identity against the NoRxCache reference path) is
// documented in DESIGN.md §16; the short form:
//
//   - Each station's entry caches every host bucketed in the cells of a
//     padded scan (radius Range + Range/8) at fill time — sleeping hosts
//     included, but left unevaluated — ID-sorted, each listening host
//     with its in-range decision and a drift deadline (safeUntil)
//     derived from its distance margin |d − Range| and the channel-wide
//     speed bound vmax. A candidate is its host's ID plus those three
//     fields: 16 bytes, no pointer. Listening and detached are read live
//     at replay, from the channel's awake table, so duty-cycle flips
//     (SPAN/GAF sleeping most of the population) never invalidate an
//     entry; a candidate found listening for the first time is
//     evaluated then, from its live position.
//   - The entry is keyed by the exact (cell, epoch) cover of the padded
//     scan (spatial.Index.CoverEpochs). Any add/remove/re-bucket through
//     a covered cell bumps a covered epoch and forces a miss. A host
//     bucketed outside the cover cannot be in range (its position would
//     place its own cell inside the cover), so the cover makes the
//     cached candidate *set* exact; the margins make the cached
//     *decisions* exact between fills.
//   - Stations without spatial info (no Mover) and speed-bound changes
//     are guarded by a channel-wide epoch (chEpoch); hosts that cannot
//     bound their speed degrade vmax to +Inf, which restricts hits to
//     the same instant as the fill — always sound, because positions are
//     pure functions of time and the (when, seq) total order interleaves
//     no motion between same-instant events.
//
// The replay path makes exactly the RNG draws and Interceptor calls of
// the reference path (one Interceptor call per admitted receiver, in ID
// order, with live positions), so faulted runs stay byte-identical too.

import (
	"math"
	"slices"

	"ecgrid/internal/geom"
	"ecgrid/internal/spatial"
)

// rxMarginGuard (meters) is shaved off every cached distance margin so
// the drift bound survives floating-point slop in position
// interpolation, mirroring spatial's slackGuard: one millimeter dwarfs
// accumulated rounding and is far below radio-range scale.
const rxMarginGuard = 1e-3

// rxCand is one cached candidate: a host bucketed inside the entry's
// cover at fill time (sleeping ones included — listening is read live
// at replay, so sleep/wake flips never invalidate an entry). It names
// the host by ID, not by *station: 16 bytes with no pointer, so a dense
// population's candidate lists are small and the GC never scans them.
// The ID always resolves to the station the fill saw: a detach removes
// the host from its cell (or bumps chEpoch), so an entry naming a
// detached ID misses before any replay could read it.
type rxCand struct {
	id int32
	// eval reports whether inRange/safeUntil have ever been derived.
	// Sleeping candidates are cached unevaluated — the reference scan
	// never reads a sleeping host's position, so the fill must not
	// either (it would turn the fill into a full-population position
	// sweep on duty-cycled protocols). They are evaluated on the first
	// replay that finds them listening.
	eval    bool
	inRange bool
	// safeUntil is the earliest instant the distance decision could
	// flip: derivation instant plus distance margin over the maximal
	// closing speed. Strictly before it the decision is trusted; at or
	// past it the decision is re-derived from the live position (and the
	// deadline refreshed), which keeps boundary hosts exact without a
	// full miss.
	safeUntil float64
}

// rxCache is one station's receiver-set cache entry. Embedded by value
// in station; its slices are recycled across fills.
type rxCache struct {
	valid bool
	at    float64 // fill instant
	epoch uint64  // Channel.chEpoch at fill
	cover []spatial.CellEpoch
	list  []rxCand // ID-sorted candidates (sleeping included)
}

// SpeedBounded is an optional Endpoint extension: hosts that can bound
// their own speed for the whole run implement it (the node layer
// delegates to mobility.SpeedBoundOf). The receiver cache uses the
// loosest bound over all attached hosts to turn distance margins into
// time; endpoints without it degrade the cache to same-instant replays.
type SpeedBounded interface {
	// MaxSpeedMS returns an upper bound, in meters per second, on the
	// host's speed at every time ≥ 0.
	MaxSpeedMS() float64
}

// RxCacheStats is receiver-scan telemetry. Pure observability: none of
// it feeds back into the simulation, and it is deliberately kept out of
// Counters so cached and reference runs fingerprint identically.
type RxCacheStats struct {
	// Candidates counts the stations startTransmission's receiver scans
	// examined: those gathered by a cache fill or an uncached scan, and
	// the whole station table per frame under BruteForce. A cache hit
	// examines none. Counted in every scan mode.
	Candidates uint64
	// Hits and Misses count startTransmission receiver scans replayed
	// from cache versus recomputed (and refilled).
	Hits   uint64
	Misses uint64
	// Rechecks counts per-candidate admit decisions re-derived inside a
	// hit because the candidate's drift deadline had passed.
	Rechecks uint64
	// BusyHits counts carrier-sense probes answered by the same-instant
	// busyAround memo.
	BusyHits uint64
}

// RxCacheStats returns the channel's receiver-cache telemetry.
func (c *Channel) RxCacheStats() RxCacheStats { return c.rxStats }

// safeHorizon converts a distance margin at instant now into the
// earliest future instant the margin could be consumed: two hosts close
// on each other at most 2·vmax meters per second. A zero vmax means
// nothing ever moves, so every decision holds forever; an infinite vmax
// (some host's speed is unbounded) collapses the horizon to now, i.e.
// same-instant trust only.
func (c *Channel) safeHorizon(now, margin float64) float64 {
	if margin < 0 {
		margin = 0
	}
	if c.vmax == 0 {
		return math.Inf(1)
	}
	return now + margin/(2*c.vmax)
}

// cachedReceivers is startTransmission's receiver scan when the cache is
// enabled: replay the sender's cached entry if its cover still holds,
// otherwise run the reference scan (padded) and refill. Both paths admit
// the identical receiver set in identical ID order as the NoRxCache
// reference.
func (c *Channel) cachedReceivers(tx *transmission, st *station, pos geom.Point, r2 float64) {
	now := c.engine.Now()
	rq := c.cfg.Range + c.cfg.Range/8
	c.cover = c.index.CoverEpochs(pos, rq, c.cover[:0])
	if c.replayFromCache(tx, st, pos, r2, now) {
		c.rxStats.Hits++
		return
	}
	c.rxStats.Misses++
	c.fillCache(tx, st, pos, r2, rq, now)
}

// replayFromCache validates the sender's entry against the freshly
// computed cover (in c.cover) and, on a hit, admits the cached receivers
// with zero querying, filtering, or sorting. Candidates whose drift
// deadline passed have their decision re-derived in place.
func (c *Channel) replayFromCache(tx *transmission, st *station, pos geom.Point, r2, now float64) bool {
	e := &st.rxc
	if !e.valid || e.epoch != c.chEpoch || len(e.cover) != len(c.cover) {
		return false
	}
	// Exact cover comparison, not a hash: a digest collision would
	// silently break byte-identity, and the cover is a few dozen entries.
	for i := range c.cover {
		if c.cover[i] != e.cover[i] {
			return false
		}
	}
	tx.rx = c.rxBuf()
	sameInstant := now == e.at
	for i := range e.list {
		cd := &e.list[i]
		// Listening and detached are read live, exactly as the reference
		// scan reads them at this instant — a sleeping candidate costs
		// one load from the awake table instead of an entry invalidation.
		if !c.awake[cd.id] {
			continue
		}
		other := c.stations[cd.id]
		if !cd.eval || (!sameInstant && now >= cd.safeUntil) {
			c.rxStats.Rechecks++
			opos := other.ep.Position()
			d2 := pos.Dist2(opos)
			cd.eval = true
			cd.inRange = d2 <= r2
			cd.safeUntil = c.safeHorizon(now, math.Abs(math.Sqrt(d2)-c.cfg.Range)-rxMarginGuard)
			if cd.inRange {
				c.admitReception(tx, other, pos, opos)
			}
			continue
		}
		if cd.inRange {
			// The receiver position is only consumed by an Interceptor;
			// read it live so fault hooks see exactly what the reference
			// path would hand them.
			var opos geom.Point
			if c.Interceptor != nil {
				opos = other.ep.Position()
			}
			c.admitReception(tx, other, pos, opos)
		}
	}
	return true
}

// fillCache runs the padded reference scan, admits the in-range
// receivers exactly as the NoRxCache path would, and rebuilds the
// sender's entry from the scan. The pad widens only what is cached —
// admission still uses the exact Range — buying each boundary candidate
// a distance margin before its decision needs re-deriving.
func (c *Channel) fillCache(tx *transmission, st *station, pos geom.Point, r2, rq, now float64) {
	c.gather(pos, rq)
	c.rxStats.Candidates += uint64(len(c.cand))
	for i := range c.cand {
		// Sleeping candidates are cached too (their listening bit is read
		// live at replay); only the sender itself is excluded.
		if cd := &c.cand[i]; cd.Payload != st {
			c.markID(cd.ID, i)
		}
	}
	c.byID = c.sweepIDs(c.byID[:0])
	e := &st.rxc
	e.cover = append(e.cover[:0], c.cover...)
	// Grow once instead of doubling through the append loop: first fills
	// otherwise allocate log(len) times per station, which at dense
	// populations is real GC churn.
	e.list = slices.Grow(e.list[:0], len(c.byID))
	e.at = now
	e.epoch = c.chEpoch
	e.valid = true
	tx.rx = c.rxBuf()
	for _, i := range c.byID {
		cd := &c.cand[i]
		other := cd.Payload
		if !other.listening || other.detached {
			// Cached unevaluated: the reference scan skips sleeping hosts
			// before reading their position, and so must the fill.
			e.list = append(e.list, rxCand{id: int32(cd.ID)})
			continue
		}
		opos := other.ep.Position()
		d2 := pos.Dist2(opos)
		inRange := d2 <= r2
		e.list = append(e.list, rxCand{
			id:        int32(cd.ID),
			eval:      true,
			inRange:   inRange,
			safeUntil: c.safeHorizon(now, math.Abs(math.Sqrt(d2)-c.cfg.Range)-rxMarginGuard),
		})
		if inRange {
			c.admitReception(tx, other, pos, opos)
		}
	}
}

// noteSpeedBound folds one attaching endpoint's speed bound into the
// channel-wide vmax. Raising vmax loosens every cached drift deadline,
// so it must invalidate all entries; chEpoch does that wholesale.
func (c *Channel) noteSpeedBound(ep Endpoint) {
	v := math.Inf(1)
	if sb, ok := ep.(SpeedBounded); ok {
		if b := sb.MaxSpeedMS(); b >= 0 && !math.IsNaN(b) {
			v = b
		}
	}
	if v > c.vmax {
		c.vmax = v
		c.chEpoch++
	}
}
