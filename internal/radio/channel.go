package radio

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
	"ecgrid/internal/spatial"
)

// Endpoint is what the channel needs from an attached host. The node
// layer implements it.
type Endpoint interface {
	// ID returns the host identifier.
	ID() hostid.ID
	// Position returns the host's current location.
	Position() geom.Point
	// NextExit returns a conservative (never late) estimate of the
	// earliest time ≥ t at which the host's position may leave bounds,
	// or +Inf if it never will. The channel's spatial index re-buckets
	// the host event-driven from it instead of scanning.
	NextExit(t float64, bounds geom.Rect) float64
	// MaxSpeedMS returns an upper bound, in meters per second, on the
	// host's speed at every time ≥ 0. The receiver scan turns a position
	// snapshot's age into a distance with it (scan.go).
	MaxSpeedMS() float64
	// Battery returns the host's battery; the channel drives its
	// radio-mode transitions.
	Battery() *energy.Battery
	// Deliver hands a successfully received frame to the host's
	// protocol stack.
	Deliver(f *Frame)
	// TxFailed reports that a unicast frame from this host exhausted its
	// MAC retries: the link-layer failure indication (802.11 "max
	// retries exceeded") routing protocols use for route repair.
	TxFailed(f *Frame)
}

// transmission is a frame in flight. Transmissions are pooled: by the
// end of endTransmission nothing references the struct (the carrier
// sense set and the sender have let go), so it is recycled for the next
// startTransmission.
type transmission struct {
	frame   *Frame
	sender  *station
	from    geom.Point // sender position at transmission start
	ends    float64
	rx      []reception // one per admitted receiver, in ID order
	seq     uint64      // carrier-sense index key
	attempt int         // retry count for unicast
	live    int         // position in Channel.liveTx (swap-delete index)
	endFn   func()      // endTransmission(self), bound once per pooled struct
}

// reception is one receiver's view of a transmission. Nothing points
// at it: the station keeps counters, not a list, and the verdict is
// read off them when the transmission ends (station.endRx).
type reception struct {
	st        *station
	gen       uint64 // st.rxGen at admission; a mismatch means aborted
	seq       uint64 // channel-wide admission sequence (Channel.rxSeq)
	corrupted bool   // jammed or half-duplex at admission
}

// station is the channel-side state of an attached endpoint.
type station struct {
	id        hostid.ID
	ep        Endpoint
	bat       *energy.Battery // ep.Battery(), read once at Attach
	listening bool
	detached  bool

	transmitting *transmission
	// tryFn is the backoff-expiry callback bound once at Attach, so each
	// medium-access cycle schedules without allocating a closure.
	tryFn func()
	// Reception bookkeeping (beginRx, endRx, abortRx): rxN receptions
	// are in progress, rxClean of them not yet corrupted. rxGen counts
	// aborts (sleep or detach mid-frame), and collideSeq is the
	// admission sequence of the last admission that overlapped one in
	// progress. Every in-progress reception is corrupted by such an
	// overlap, so a reception admitted at seq ends corrupted iff it was
	// corrupted at admission or collideSeq > seq.
	rxN, rxClean int
	rxGen        uint64
	collideSeq   uint64
	queue        sendQueue
	accessing    bool // backoff event pending
	cwSlots      int  // current contention window
}

// beginRx opens a reception at s with admission sequence seq. corrupted
// reports a jam; with collide (CollisionsEnabled) a transmitting
// station cannot receive, and a reception that overlaps others
// corrupts them all. It returns the reception and the collisions the
// admission counts: one per reception it corrupts, itself included,
// the same count a sweep over a list of in-progress receptions gives.
func (s *station) beginRx(seq uint64, corrupted, collide bool) (reception, uint64) {
	var n uint64
	if collide {
		if s.transmitting != nil {
			corrupted = true // half-duplex
		}
		if s.rxN > 0 {
			n = uint64(s.rxClean) + 1
			s.rxClean = 0
			s.collideSeq = seq
			corrupted = true
		}
	}
	s.rxN++
	if !corrupted {
		s.rxClean++
	}
	return reception{st: s, gen: s.rxGen, seq: seq, corrupted: corrupted}, n
}

// endRx closes r at its station. live is false when an abort already
// dropped it; otherwise corrupted is its verdict.
func (s *station) endRx(r *reception) (live, corrupted bool) {
	if r.gen != s.rxGen {
		return false, false
	}
	s.rxN--
	corrupted = r.corrupted || s.collideSeq > r.seq
	if !corrupted {
		s.rxClean--
	}
	return true, corrupted
}

// abortRx drops every in-progress reception (the station slept or died
// mid-frame); each one's endRx will report it dead.
func (s *station) abortRx() {
	s.rxN, s.rxClean = 0, 0
	s.rxGen++
}

// queued is a frame waiting for medium access.
type queued struct {
	frame   *Frame
	attempt int
}

// mode derives the energy mode the station should be charged at.
func (s *station) mode() energy.Mode {
	switch {
	case !s.listening:
		return energy.Sleep
	case s.transmitting != nil:
		return energy.Transmit
	case s.rxN > 0:
		return energy.Receive
	default:
		return energy.Idle
	}
}

// Channel is the shared wireless medium. All methods must be called from
// simulation events (the engine is single-threaded).
type Channel struct {
	engine   *sim.Engine
	rng      *sim.RNG
	cfg      Config
	counters Counters
	perKind  map[string]KindCount

	// stations is the one station lookup: indexed by host ID, nil where
	// no host is attached. Walking its non-nil slots is ascending-ID
	// iteration. awake mirrors listening && !detached per ID, so the
	// receiver scan can skip a sleeping candidate without loading its
	// station; only Attach, Detach and SetListening write it. snap holds
	// each host's position snapshot (scan.go), written by readPos (at
	// Attach, by the index's insert read); vmax is the loosest speed
	// bound over all hosts ever attached. idMark and idSlot run beside
	// them for markID/sweepIDs: one bit per ID, all clear between
	// sweeps, and the candidate index recorded with each marked ID.
	// idLo..idHi bounds the marked words (idLo > idHi when nothing is
	// marked).
	stations   []*station
	awake      []bool
	snap       []posSnap
	vmax       float64
	idMark     []uint64
	idSlot     []int32
	idLo, idHi int

	// Spatial acceleration (nil when cfg.BruteForce): index buckets the
	// attached stations for receiver discovery, and txIdx holds the
	// origins of in-flight transmissions for carrier sense.
	index *spatial.Index[*station]
	txIdx *spatial.PointSet
	// Receiver-scan scratch: cand collects the index's candidates in
	// cell-scan order; cpos holds each admitted candidate's position
	// (parallel to cand); byID lists candidate indices in host-ID order,
	// as sweepIDs returns them for the candidates a scan marked. rxFree
	// recycles reception buffers: nothing points into one, so any pooled
	// buffer serves any transmission and the pool never holds more than
	// the peak number in flight. rxSeq numbers admissions channel-wide
	// (reception.seq). rxStats is the scans' telemetry.
	cand    []spatial.Candidate[*station]
	cpos    []geom.Point
	byID    []int32
	rxFree  [][]reception
	rxSeq   uint64
	rxStats RxCacheStats
	// txFree and frameFree recycle transmission and pooled-Frame structs
	// the same way rxFree recycles reception buffers: everything leaves
	// the live structures before the struct returns to its pool.
	txFree    []*transmission
	frameFree []*Frame
	txSeq     uint64
	// liveTx tracks every in-flight transmission (both carrier-sense
	// modes, including ones whose sender has since detached): Shutdown
	// returns their frames to the pool, and the brute-force reference
	// carrier sense scans it. Removal is swap-delete via transmission.live.
	liveTx []*transmission

	// Sniffer, when non-nil, observes every transmission start. Tests
	// and the trace layer use it.
	Sniffer func(f *Frame, at float64)

	// Interceptor, when non-nil, vets potential receptions at
	// transmission start: it is called with the frame and the sender and
	// receiver positions, and returning false corrupts the frame at that
	// receiver (fault injection: jamming; obstacles). The receiver still
	// pays the reception energy, exactly as with a real collision;
	// corrupted unicasts go through the normal MAC retry/failure path.
	// The BruteForce reference calls it once per in-range listening
	// receiver, in ID order; the indexed scan skips the frames that
	// InterceptReach rules out.
	Interceptor func(f *Frame, from, to geom.Point) bool
	// InterceptReach, when non-nil, is asked once per frame before the
	// indexed scan: false promises that, at this instant, Interceptor
	// returns true without drawing randomness for every receiver within
	// r of from, so the scan treats the frame as hook-free (no call, no
	// live read of a snapshot-settled receiver). nil means the hook may
	// act anywhere.
	InterceptReach func(from geom.Point, r float64) bool
}

// NewChannel creates a medium with the given parameters.
func NewChannel(engine *sim.Engine, rng *sim.RNG, cfg Config) *Channel {
	if cfg.Range <= 0 || cfg.BitrateBps <= 0 {
		panic("radio: invalid config")
	}
	if cfg.MinBackoffSlots < 1 {
		cfg.MinBackoffSlots = 1
	}
	if cfg.MaxBackoffSlots < cfg.MinBackoffSlots {
		cfg.MaxBackoffSlots = cfg.MinBackoffSlots
	}
	c := &Channel{
		engine:  engine,
		rng:     rng,
		cfg:     cfg,
		idLo:    math.MaxInt,
		idHi:    -1,
		perKind: make(map[string]KindCount),
	}
	if !cfg.BruteForce {
		// Cell side and slack trade query breadth against maintenance
		// rate; any positive values are correct (see internal/spatial),
		// so these just balance the two at the paper's geometry.
		side := cfg.Range / 2
		c.index = spatial.NewIndex[*station](engine, side, cfg.Range/8)
		c.txIdx = spatial.NewPointSet(side)
	}
	return c
}

// Counters returns a snapshot of the channel-wide MAC statistics.
func (c *Channel) Counters() Counters { return c.counters }

// PerKind returns a copy of the per-frame-kind air usage (transmissions,
// including MAC retries).
func (c *Channel) PerKind() map[string]KindCount {
	out := make(map[string]KindCount, len(c.perKind))
	for k, v := range c.perKind { //simlint:ordered map-to-map copy, order never observed
		out[k] = v
	}
	return out
}

// Config returns the channel parameters.
func (c *Channel) Config() Config { return c.cfg }

// Attach registers an endpoint. Hosts start in listening (awake) state.
// IDs index a dense table, so they must be non-negative and should be
// small (hosts are numbered from 0).
func (c *Channel) Attach(ep Endpoint) {
	id := ep.ID()
	if id < 0 || int64(id) > int64(1<<31-1) {
		panic(fmt.Sprintf("radio: host id %v outside [0, 2^31) — stations live in a table indexed by id", id))
	}
	if c.stationOf(id) != nil {
		panic(fmt.Sprintf("radio: duplicate attach of %v", id))
	}
	st := &station{
		id:        id,
		ep:        ep,
		bat:       ep.Battery(),
		listening: true,
		cwSlots:   c.cfg.MinBackoffSlots,
	}
	st.tryFn = func() { c.tryTransmit(st) }
	if n := int(id) + 1; n > len(c.stations) {
		// slices.Grow appends, so the tables grow geometrically.
		c.stations = slices.Grow(c.stations, n-len(c.stations))[:n]
		c.awake = slices.Grow(c.awake, n-len(c.awake))[:n]
		c.snap = slices.Grow(c.snap, n-len(c.snap))[:n]
		c.idSlot = slices.Grow(c.idSlot, n-len(c.idSlot))[:n]
		if w := (n + 63) >> 6; w > len(c.idMark) {
			c.idMark = slices.Grow(c.idMark, w-len(c.idMark))[:w]
		}
	}
	c.stations[id] = st
	c.awake[id] = true
	if c.index != nil {
		// vmax only grows, and each host's bound holds for all time, so
		// every snapshot's drift bound stays sound as hosts attach. A NaN
		// bound makes vmax NaN, which, like +Inf, settles nothing.
		c.vmax = max(c.vmax, ep.MaxSpeedMS())
		// The index's position reads refresh the snapshot too. Insert
		// reads the position at once, so a re-attached ID, which may be a
		// different endpoint, never keeps its old snapshot.
		c.index.Insert(id, st, func() geom.Point { return c.readPos(st) }, ep.NextExit)
	}
}

// stationOf returns the attached station with the given ID, or nil.
func (c *Channel) stationOf(id hostid.ID) *station {
	if uint(id) < uint(len(c.stations)) {
		return c.stations[id]
	}
	return nil
}

// markID files candidate index i under host ID id for the next
// sweepIDs. An ID may be marked at most once per sweep.
func (c *Channel) markID(id hostid.ID, i int) {
	w := int(id) >> 6
	c.idMark[w] |= 1 << (uint(id) & 63)
	c.idSlot[id] = int32(i)
	c.idLo = min(c.idLo, w)
	c.idHi = max(c.idHi, w)
}

// sweepIDs appends to dst the candidate indices marked since the last
// sweep, in ascending host-ID order, and clears the marks. It reads
// only the words between the lowest and highest marked ID. Because IDs
// are unique, this is exactly the order a sort by ID would give,
// without comparing anything.
func (c *Channel) sweepIDs(dst []int32) []int32 {
	for w := c.idLo; w <= c.idHi; w++ {
		m := c.idMark[w]
		c.idMark[w] = 0
		for m != 0 {
			dst = append(dst, c.idSlot[w<<6|bits.TrailingZeros64(m)])
			m &= m - 1
		}
	}
	c.idLo, c.idHi = math.MaxInt, -1
	return dst
}

// Detach removes a host (battery death). In-flight receptions at the host
// are dropped; its in-flight transmission, if any, completes on the air
// but is never retried.
func (c *Channel) Detach(id hostid.ID) {
	st := c.stationOf(id)
	if st == nil {
		return
	}
	st.detached = true
	for !st.queue.empty() {
		c.ReleaseFrame(st.queue.popFront().frame)
	}
	st.queue.clear()
	st.abortRx()
	c.stations[id] = nil
	c.awake[id] = false
	if c.index != nil {
		c.index.Remove(id)
	}
}

// SetListening flips a host between awake (true) and asleep (false).
// Falling asleep aborts any receptions in progress; the host keeps any
// transmission it already started (protocols never sleep mid-send).
// The battery mode is updated accordingly.
func (c *Channel) SetListening(id hostid.ID, on bool) {
	st := c.stationOf(id)
	if st == nil {
		return
	}
	if st.listening == on {
		return
	}
	st.listening = on
	c.awake[id] = on
	if !on {
		st.abortRx()
	}
	c.updateMode(st)
}

// Listening reports whether the host is attached and awake.
func (c *Channel) Listening(id hostid.ID) bool {
	st := c.stationOf(id)
	return st != nil && st.listening
}

func (c *Channel) updateMode(st *station) {
	if st.detached {
		return
	}
	st.bat.SetMode(c.engine.Now(), st.mode())
}

// Send queues a frame for transmission from src. The frame goes on air
// after carrier sense and backoff. Sending from a sleeping or detached
// host is a protocol bug and panics.
func (c *Channel) Send(src hostid.ID, f *Frame) {
	st := c.stationOf(src)
	if st == nil {
		panic(fmt.Sprintf("radio: Send from detached host %v", src))
	}
	if !st.listening {
		panic(fmt.Sprintf("radio: Send from sleeping host %v", src))
	}
	if f.Bytes <= 0 {
		panic(fmt.Sprintf("radio: frame with non-positive size: %v", f))
	}
	f.Src = src
	if c.cfg.QueueLimit > 0 && st.queue.len() >= c.cfg.QueueLimit {
		c.ReleaseFrame(f) // tail drop
		return
	}
	c.counters.FramesQueued++
	st.queue.pushBack(queued{frame: f})
	c.maybeAccess(st)
}

// maybeAccess starts the medium-access procedure if the station is idle
// with work queued.
func (c *Channel) maybeAccess(st *station) {
	if st.accessing || st.transmitting != nil || st.queue.empty() || st.detached || !st.listening {
		return
	}
	st.accessing = true
	wait := c.cfg.DIFS + float64(c.rng.Intn(sim.StreamRadioBackoff, st.cwSlots))*c.cfg.SlotTime
	c.engine.Schedule(wait, st.tryFn)
}

// busyAround reports whether any transmission is audible at p. With the
// spatial index, carrier sense probes only the cells within range of p;
// the brute-force reference scans every in-flight transmission (liveTx).
func (c *Channel) busyAround(p geom.Point) bool {
	if c.txIdx != nil {
		return c.txIdx.AnyWithin(p, c.cfg.Range)
	}
	r2 := c.cfg.Range * c.cfg.Range
	for _, tx := range c.liveTx {
		if tx.from.Dist2(p) <= r2 {
			return true
		}
	}
	return false
}

// tryTransmit fires after backoff: sense the medium and either transmit
// or defer with a doubled window.
func (c *Channel) tryTransmit(st *station) {
	st.accessing = false
	if st.detached || !st.listening || st.queue.empty() || st.transmitting != nil {
		return
	}
	pos := c.readPos(st)
	if c.busyAround(pos) || st.rxN > 0 {
		// Medium busy: defer, exponentially widening the window.
		c.counters.DeferredAccess++
		st.cwSlots = min(st.cwSlots*2, c.cfg.MaxBackoffSlots)
		c.maybeAccess(st)
		return
	}
	q := st.queue.popFront()
	st.cwSlots = c.cfg.MinBackoffSlots
	c.startTransmission(st, q, pos)
}

func (c *Channel) newTransmission() *transmission {
	if n := len(c.txFree); n > 0 {
		tx := c.txFree[n-1]
		c.txFree[n-1] = nil
		c.txFree = c.txFree[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.endFn = func() { c.endTransmission(tx) }
	return tx
}

func (c *Channel) recycleTransmission(tx *transmission) {
	tx.frame = nil
	tx.sender = nil
	c.txFree = append(c.txFree, tx)
}

func (c *Channel) startTransmission(st *station, q queued, pos geom.Point) {
	air := c.cfg.AirTime(q.frame.Bytes)
	tx := c.newTransmission()
	tx.frame = q.frame
	tx.sender = st
	tx.from = pos
	tx.ends = c.engine.Now() + air + c.cfg.PropDelay
	tx.seq = c.txSeq
	tx.attempt = q.attempt
	c.txSeq++
	st.transmitting = tx
	// Carrier sense reads txIdx, or liveTx in the brute-force reference
	// (busyAround).
	if c.txIdx != nil {
		c.txIdx.Add(tx.seq, pos)
	}
	tx.live = len(c.liveTx)
	c.liveTx = append(c.liveTx, tx)
	c.counters.FramesSent++
	c.counters.BytesOnAir += uint64(q.frame.Bytes)
	kc := c.perKind[q.frame.Kind]
	kc.Frames++
	kc.Bytes += uint64(q.frame.Bytes)
	c.perKind[q.frame.Kind] = kc
	if c.Sniffer != nil {
		c.Sniffer(q.frame, c.engine.Now())
	}
	c.updateMode(st)

	// Establish receptions at every listening host in range, in ID
	// order so runs are reproducible. The indexed scan admits exactly the
	// receivers, in exactly the order, of the brute-force reference
	// below, which reads every awake station's position. hook says
	// whether the Interceptor vets this frame; the reference never asks
	// its reach.
	tx.rx = c.rxBuf()
	hook := c.Interceptor != nil
	if hook && c.index != nil && c.InterceptReach != nil {
		hook = c.InterceptReach(pos, c.cfg.Range)
	}
	if hook {
		c.rxStats.Intercepted++
	}
	if c.index != nil {
		c.indexedReceivers(tx, st, pos, hook)
	} else {
		r2 := c.cfg.Range * c.cfg.Range
		c.rxStats.Candidates += uint64(len(c.stations))
		for _, other := range c.stations {
			if other == nil || other == st || !other.listening {
				continue
			}
			c.rxStats.LiveReads++
			otherPos := c.readPos(other)
			if pos.Dist2(otherPos) > r2 {
				continue
			}
			c.admitReception(tx, other, pos, otherPos, hook)
		}
	}

	c.engine.Schedule(air+c.cfg.PropDelay, tx.endFn)
}

// rxBuf returns an empty reception buffer, recycling one retired by
// endTransmission when the pool has any.
func (c *Channel) rxBuf() []reception {
	if n := len(c.rxFree); n > 0 {
		buf := c.rxFree[n-1]
		c.rxFree[n-1] = nil
		c.rxFree = c.rxFree[:n-1]
		return buf
	}
	return nil
}

// recycleRx returns a transmission's reception buffer to the pool.
// Entries are zeroed so pooled buffers don't retain stations.
func (c *Channel) recycleRx(tx *transmission) {
	buf := tx.rx
	tx.rx = nil
	clear(buf)
	c.rxFree = append(c.rxFree, buf[:0])
}

// admitReception records that other hears tx, applying collision
// corruption and, when hook is set, interception.
func (c *Channel) admitReception(tx *transmission, other *station, from, to geom.Point, hook bool) {
	jammed := hook && !c.Interceptor(tx.frame, from, to)
	if jammed {
		c.counters.Jammed++
	}
	c.rxSeq++
	rx, collisions := other.beginRx(c.rxSeq, jammed, c.cfg.CollisionsEnabled)
	c.counters.Collisions += collisions
	tx.rx = append(tx.rx, rx)
	c.updateMode(other)
}

func (c *Channel) endTransmission(tx *transmission) {
	st := tx.sender
	if c.txIdx != nil {
		c.txIdx.Remove(tx.seq, tx.from)
	}
	last := len(c.liveTx) - 1
	c.liveTx[tx.live] = c.liveTx[last]
	c.liveTx[tx.live].live = tx.live
	c.liveTx[last] = nil
	c.liveTx = c.liveTx[:last]
	if st.transmitting == tx {
		st.transmitting = nil
	}
	c.updateMode(st)

	dstOK := false
	for i := range tx.rx {
		rx := &tx.rx[i]
		// Sleep and detach abort a station's receptions (endRx reports
		// them dead), so a live one's station is still awake and attached.
		if live, corrupted := rx.st.endRx(rx); live {
			c.updateMode(rx.st)
			if corrupted {
				continue
			}
			if tx.frame.Dst == hostid.Broadcast || tx.frame.Dst == rx.st.id {
				if tx.frame.Dst == rx.st.id {
					dstOK = true
				}
				c.counters.Deliveries++
				rx.st.ep.Deliver(tx.frame)
			}
		}
	}

	// Emulated ACK/timeout loop: retry failed unicast frames. A retried
	// frame stays alive on the queue; any other frame is done with the
	// air and, if pool-owned, returns to the pool (Deliver/TxFailed run
	// before the release and must not retain the frame — the Protocol
	// contract).
	retried := false
	if tx.frame.Dst.IsUnicast() && !dstOK && !st.detached && st.listening {
		if tx.attempt < c.cfg.MACRetries {
			c.counters.Retries++
			st.cwSlots = min(st.cwSlots*2, c.cfg.MaxBackoffSlots)
			// Retries go to the queue front to preserve ordering.
			st.queue.pushFront(queued{frame: tx.frame, attempt: tx.attempt + 1})
			retried = true
		} else {
			c.counters.UnicastFailed++
			// Link-layer feedback: tell the sender its frame died, as
			// a real 802.11 interface reports exhausted ACK retries.
			st.ep.TxFailed(tx.frame)
		}
	}
	if !retried {
		c.ReleaseFrame(tx.frame)
	}
	c.recycleRx(tx)
	c.recycleTransmission(tx)
	c.maybeAccess(st)
}

// NewFrame returns a frame owned by the channel's pool, initialized with
// the given header fields and payload. The channel reclaims the struct
// once it is done with the air (delivered, dropped, or failed); per the
// node.Protocol contract receivers must not retain the frame past the
// Receive call, though payloads may be shared. Frames built with a plain
// composite literal keep working — ReleaseFrame ignores them.
func (c *Channel) NewFrame(kind string, src, dst hostid.ID, bytes int, payload any) *Frame {
	var f *Frame
	if n := len(c.frameFree); n > 0 {
		f = c.frameFree[n-1]
		c.frameFree[n-1] = nil
		c.frameFree = c.frameFree[:n-1]
	} else {
		f = &Frame{pooled: true}
	}
	f.Kind, f.Src, f.Dst, f.Bytes, f.Payload = kind, src, dst, bytes, payload
	f.leased = true
	c.counters.FramesPooled++
	return f
}

// ReleaseFrame returns a pool-owned frame (see NewFrame). Frames not
// created by NewFrame are left alone.
func (c *Channel) ReleaseFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	if !f.leased {
		panic(fmt.Sprintf("radio: double ReleaseFrame of %v", f))
	}
	f.leased = false
	f.Payload = nil
	c.counters.FramesReleased++
	c.frameFree = append(c.frameFree, f)
}

// OutstandingFrames is the number of pooled frames currently checked
// out (leased by NewFrame and not yet released). During a run it counts
// queued and in-flight frames; after Shutdown it must be zero — any
// remainder is a frame some component minted and lost, the runtime
// cross-check of the framelease static analyzer.
func (c *Channel) OutstandingFrames() int {
	return int(c.counters.FramesPooled - c.counters.FramesReleased)
}

// Shutdown returns every frame the channel still holds — queued at
// stations or in flight on the air — to the pool. Call it once after
// the engine has stopped (pending end-of-transmission events never fire
// past the horizon, so their frames are reclaimed here); the channel
// must not carry traffic afterwards.
func (c *Channel) Shutdown() {
	for _, st := range c.stations {
		if st == nil {
			continue
		}
		for !st.queue.empty() {
			c.ReleaseFrame(st.queue.popFront().frame)
		}
	}
	for i, tx := range c.liveTx {
		c.ReleaseFrame(tx.frame)
		tx.frame = nil
		c.liveTx[i] = nil
	}
	c.liveTx = c.liveTx[:0]
}

// InRange reports whether two attached hosts are currently within
// transmission range of each other. Protocol code uses it only through
// higher-level abstractions; tests use it directly.
func (c *Channel) InRange(a, b hostid.ID) bool {
	sa, sb := c.stationOf(a), c.stationOf(b)
	if sa == nil || sb == nil {
		return false
	}
	return c.readPos(sa).Dist2(c.readPos(sb)) <= c.cfg.Range*c.cfg.Range
}

// NearIDs appends to dst every attached station that may lie within r
// of p — a superset of the stations truly in range — in ascending ID
// order, and returns dst. The caller owns the exact distance check. With
// the spatial index the candidates come from the cells within reach;
// under BruteForce they are the whole attached population, the
// reference sweep. The RAS bus answers grid pages from
// it (ras.Candidates); pass a recycled dst[:0] to stay allocation-free.
func (c *Channel) NearIDs(p geom.Point, r float64, dst []hostid.ID) []hostid.ID {
	if c.index == nil {
		for id, st := range c.stations {
			if st != nil {
				dst = append(dst, hostid.ID(id))
			}
		}
		return dst
	}
	// c.cand and c.byID are the receiver scan's scratch; they are fully
	// consumed here before any other channel method can run.
	c.cand = c.index.NearbyAppend(p, r, c.cand[:0])
	for i := range c.cand {
		c.markID(c.cand[i].ID, i)
	}
	c.byID = c.sweepIDs(c.byID[:0])
	for _, i := range c.byID {
		dst = append(dst, c.cand[i].ID)
	}
	return dst
}
