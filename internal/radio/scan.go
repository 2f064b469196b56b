package radio

// The indexed receiver scan. For each transmission the spatial index
// yields a superset of the hosts within Range of the sender; the scan
// settles each awake candidate from a per-host position snapshot when it
// can and reads the live position only when it cannot. DESIGN.md §16
// gives the soundness argument; the short form:
//
//   - The channel keeps, per host ID, the last position it read for the
//     host and the instant it read it (Channel.snap). Every position the
//     channel reads goes through readPos, which refreshes the snapshot.
//     Attach reads the position (the spatial index's insert), so a
//     re-attached ID never keeps the old endpoint's snapshot.
//   - A host moves at most vmax meters per second (the loosest
//     Endpoint.MaxSpeedMS over every host ever attached), so at instant
//     now it lies within drift = vmax·(now − t) of its snapshot taken at
//     t. The sender's position is read live for every frame, so only the
//     receiver drifts.
//   - With d0 the distance from the sender to the snapshot: d0 + drift <
//     Range proves the candidate in range, d0 − drift > Range proves it
//     out of range, and anything in between is read live and settled by
//     the exact Dist2 <= Range² check the BruteForce reference applies.
//     An unbounded vmax yields an infinite drift, which settles nothing:
//     the candidate is read live.
//
// Positions are pure functions of time, so skipping a read changes no
// simulation state. An Interceptor takes receiver positions, so on a
// frame within its reach (Channel.InterceptReach) an in-range candidate
// is still read live; out-of-range ones are skipped either way, and a
// frame out of reach is scanned as if no hook were installed.

import "ecgrid/internal/geom"

// rxMarginGuard (meters) pads every drift bound so a snapshot decision
// survives floating-point slop in position interpolation and in the
// squared-distance comparisons, mirroring spatial's slackGuard: one
// millimeter dwarfs accumulated rounding and is far below radio-range
// scale.
const rxMarginGuard = 1e-3

// posSnap is the last position the channel read for one host, and the
// instant it read it. 24 bytes with no pointer, one per host ID.
type posSnap struct {
	p geom.Point
	t float64
}

// RxCacheStats is receiver-scan telemetry. Pure observability: none of
// it feeds back into the simulation, and it is deliberately kept out of
// Counters so the indexed and BruteForce scans fingerprint identically.
type RxCacheStats struct {
	// Candidates counts the stations startTransmission's receiver scans
	// examined: the spatial index's candidates per frame, and the whole
	// station table per frame under BruteForce.
	Candidates uint64
	// LiveReads counts the receiver positions the scans read live: the
	// candidates a snapshot could not settle, plus in-range receivers
	// handed to an Interceptor on frames within its reach. Under
	// BruteForce every awake station but the sender is read.
	LiveReads uint64
	// Intercepted counts the frames whose receivers were handed to the
	// Interceptor: the frames within its reach (InterceptReach), and
	// every frame under BruteForce while one is installed.
	Intercepted uint64

	// Hits, Misses, Rechecks and BusyHits are always zero.
	//
	// Deprecated: they counted the receiver-set cache and carrier-sense
	// memo, both deleted; kept so the bench module, which still reads
	// them, compiles. The next change to bench/ removes them.
	Hits, Misses, Rechecks, BusyHits uint64
}

// RxCacheStats returns the channel's receiver-scan telemetry.
func (c *Channel) RxCacheStats() RxCacheStats { return c.rxStats }

// readPos reads station st's live position and records it as the
// station's snapshot. Every position the channel reads goes through it.
func (c *Channel) readPos(st *station) geom.Point {
	p := st.ep.Position()
	c.snap[st.id] = posSnap{p: p, t: c.engine.Now()}
	return p
}

// indexedReceivers opens a reception, in ascending ID order, at every
// awake station other than the sender within Range of pos: the spatial
// index's candidates filtered by snapshot, live read where needed. hook
// says whether the Interceptor vets this frame's receptions.
func (c *Channel) indexedReceivers(tx *transmission, st *station, pos geom.Point, hook bool) {
	rng := c.cfg.Range
	r2 := rng * rng
	now := c.engine.Now()
	c.cand = c.index.NearbyAppend(pos, rng, c.cand[:0])
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
			if hook {
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
		c.admitReception(tx, c.cand[i].Payload, pos, c.cpos[i], hook)
	}
}
