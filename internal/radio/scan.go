package radio

// The indexed receiver scan. For each transmission the spatial index
// yields a superset of the hosts within Range of the sender; the scan
// settles each awake candidate from a per-host position snapshot when it
// can and reads the live position only when it cannot. DESIGN.md §16
// gives the soundness argument; the short form:
//
//   - The channel keeps, per host ID, the last position it read for the
//     host and the instant it read it (Channel.snap). Every position the
//     channel reads goes through readPos, which refreshes the snapshot;
//     Attach invalidates it.
//   - A host moves at most vmax meters per second (the loosest
//     SpeedBounded bound over every host ever attached), so at instant
//     now it lies within drift = vmax·(now − t) of its snapshot taken at
//     t. The sender's position is read live for every frame, so only the
//     receiver drifts.
//   - With d0 the distance from the sender to the snapshot: d0 + drift <
//     Range proves the candidate in range, d0 − drift > Range proves it
//     out of range, and anything in between is read live and settled by
//     the exact Dist2 <= Range² check the BruteForce reference applies.
//     An invalid snapshot or an unbounded vmax yields a NaN or infinite
//     drift, which settles nothing: the candidate is read live.
//
// Positions are pure functions of time, so skipping a read changes no
// simulation state. An Interceptor takes receiver positions, so with one
// installed an in-range candidate is still read live; out-of-range ones
// are skipped either way.

import (
	"math"

	"ecgrid/internal/geom"
)

// rxMarginGuard (meters) pads every drift bound so a snapshot decision
// survives floating-point slop in position interpolation and in the
// squared-distance comparisons, mirroring spatial's slackGuard: one
// millimeter dwarfs accumulated rounding and is far below radio-range
// scale.
const rxMarginGuard = 1e-3

// posSnap is the last position the channel read for one host, and the
// instant it read it; t is NaN when no read since the host's Attach is
// on record. 24 bytes with no pointer, one per host ID.
type posSnap struct {
	p geom.Point
	t float64
}

// SpeedBounded is an optional Endpoint extension: hosts that can bound
// their own speed for the whole run implement it (the node layer
// delegates to mobility.SpeedBoundOf). The receiver scan uses the
// loosest bound over all attached hosts to turn a snapshot's age into a
// distance; endpoints without it make every candidate a live read.
type SpeedBounded interface {
	// MaxSpeedMS returns an upper bound, in meters per second, on the
	// host's speed at every time ≥ 0.
	MaxSpeedMS() float64
}

// RxCacheStats is receiver-scan telemetry. Pure observability: none of
// it feeds back into the simulation, and it is deliberately kept out of
// Counters so the indexed and BruteForce scans fingerprint identically.
type RxCacheStats struct {
	// Candidates counts the stations startTransmission's receiver scans
	// examined: the spatial index's candidates plus the unindexed side
	// list per frame, and the whole station table per frame under
	// BruteForce.
	Candidates uint64
	// LiveReads counts the receiver positions the scans read live: the
	// candidates a snapshot could not settle, plus in-range receivers
	// handed to an Interceptor. Under BruteForce every awake station but
	// the sender is read.
	LiveReads uint64

	// Hits, Misses, Rechecks and BusyHits are always zero.
	//
	// Deprecated: they counted the receiver-set cache and carrier-sense
	// memo, both deleted; kept so the bench module, which still reads
	// them, compiles. The next change to bench/ removes them.
	Hits, Misses, Rechecks, BusyHits uint64
}

// RxCacheStats returns the channel's receiver-scan telemetry.
func (c *Channel) RxCacheStats() RxCacheStats { return c.rxStats }

// noteSpeedBound folds one attaching endpoint's speed bound into the
// channel-wide vmax. vmax only grows, and each host's bound holds for
// all time, so every snapshot's drift bound stays sound as hosts attach.
func (c *Channel) noteSpeedBound(ep Endpoint) {
	v := math.Inf(1)
	if sb, ok := ep.(SpeedBounded); ok {
		if b := sb.MaxSpeedMS(); b >= 0 && !math.IsNaN(b) {
			v = b
		}
	}
	c.vmax = max(c.vmax, v)
}

// readPos reads station st's live position and records it as the
// station's snapshot. Every position the channel reads goes through it.
func (c *Channel) readPos(st *station) geom.Point {
	p := st.ep.Position()
	c.snap[st.id] = posSnap{p: p, t: c.engine.Now()}
	return p
}

// indexedReceivers opens a reception, in ascending ID order, at every
// awake station other than the sender within Range of pos: the spatial
// index's candidates filtered by snapshot, live read where needed.
func (c *Channel) indexedReceivers(tx *transmission, st *station, pos geom.Point) {
	rng := c.cfg.Range
	r2 := rng * rng
	now := c.engine.Now()
	c.gather(pos, rng)
	c.rxStats.Candidates += uint64(len(c.cand))
	// Filter first, order second: the checks are order-free (Position is
	// pure per instant), so applying them before imposing ID order
	// shrinks the sweep to the hosts that actually receive — in a
	// duty-cycled protocol, a small fraction of the candidates.
	if cap(c.cpos) < len(c.cand) {
		c.cpos = make([]geom.Point, len(c.cand))
	}
	c.cpos = c.cpos[:len(c.cand)]
	for i := range c.cand {
		cd := &c.cand[i]
		// awake is false for sleeping and detached stations: skipping
		// them costs one load, not a station dereference.
		if !c.awake[cd.ID] || cd.Payload == st {
			continue
		}
		s := &c.snap[cd.ID]
		drift := c.vmax*(now-s.t) + rxMarginGuard
		d2 := pos.Dist2(s.p)
		if lo := rng - drift; lo > 0 && d2 < lo*lo {
			// Surely in range; the position is needed only by an
			// Interceptor, which must see the live one.
			if c.Interceptor != nil {
				c.rxStats.LiveReads++
				c.cpos[i] = c.readPos(cd.Payload)
			}
		} else if hi := rng + drift; d2 > hi*hi {
			continue // surely out of range
		} else {
			c.rxStats.LiveReads++
			p := c.readPos(cd.Payload)
			if pos.Dist2(p) > r2 {
				continue
			}
			c.cpos[i] = p
		}
		c.markID(cd.ID, i)
	}
	c.byID = c.sweepIDs(c.byID[:0])
	for _, i := range c.byID {
		c.admitReception(tx, c.cand[i].Payload, pos, c.cpos[i])
	}
}
