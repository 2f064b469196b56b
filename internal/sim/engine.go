// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which makes runs exactly reproducible: given the same seed and the same
// sequence of Schedule calls, every run produces the identical trace.
//
// Time is a float64 number of seconds since the start of the simulation.
// All protocol and radio code in this repository runs inside engine events;
// nothing uses wall-clock time.
//
// # Event recycling
//
// Fired and canceled events return to a free list and are reused by later
// Schedule calls, so the steady-state path allocates nothing. Schedule and
// At therefore hand out a Handle — the event pointer plus the event's
// generation at scheduling time — instead of a raw pointer. Every recycle
// bumps the generation, so a stale Handle (kept after its event fired or
// was canceled and collected) no longer matches and Cancel, Reschedule and
// When on it are harmless no-ops rather than corruption of whatever event
// now occupies the recycled slot.
//
// # Event queue
//
// Pending events live in one 4-ary min-heap whose entries carry the
// ordering key (when, seq) inline next to the event pointer, so sifting
// compares keys without dereferencing events. Pop order is exactly the
// (when, seq) total order: earliest timestamp first, scheduling order
// among equal timestamps. Because that order is total, the fire sequence
// is a pure function of the queued set, whatever the queue's internal
// layout; the package's oracle tests check it against a linear-scan
// reference.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in seconds.
type Time = float64

// event is a scheduled callback. The callback runs with the engine clock
// set to the event's timestamp. Events are pooled: after firing (or being
// canceled and collected) the struct is recycled for a later Schedule
// call under a bumped generation.
type event struct {
	when Time
	fn   func()
	gen  uint64 // incremented on every recycle; Handles must match it
	// slot is the event's index in the heap; -1 when it is not queued.
	slot     int
	canceled bool // canceled events stay queued but do not fire
}

// entry is one heap element. The ordering key is copied inline so that
// sift comparisons stay within the heap's own memory.
type entry struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	ev   *event
}

// eventLess is the queue's total order: earlier timestamp first, FIFO
// (scheduling order) among equal timestamps.
func eventLess(a, b *entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event: the pooled event plus the
// generation it had when scheduled. The zero Handle refers to no event.
// A Handle goes stale once its event fires or is collected after Cancel;
// stale Handles are detected by the generation check and every operation
// on them is a no-op.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still names the incarnation it was
// created for (the event is queued: fired/collected events are recycled
// immediately, which bumps the generation).
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Pending reports whether the event is still queued to fire: not yet
// fired, not canceled, not stale.
func (h Handle) Pending() bool { return h.live() && !h.ev.canceled }

// When returns the simulation time at which the event fires. It returns
// 0 when the handle is stale (the event already fired or was collected).
func (h Handle) When() Time {
	if !h.live() {
		return 0
	}
	return h.ev.when
}

// Canceled reports whether Cancel was called on the (still queued)
// event. Stale handles report false.
func (h Handle) Canceled() bool { return h.live() && h.ev.canceled }

// Engine is a single-threaded discrete-event simulator. Construct it
// with NewEngine.
type Engine struct {
	now     Time
	heap    []entry // 4-ary min-heap in (when, seq) order
	nextSeq uint64
	running bool
	stopped bool

	// processed counts events that actually fired (excludes canceled).
	processed uint64
	// canceled counts queued events whose Cancel flag is set; it drives
	// queue compaction so timer-heavy protocols cannot bloat the queue.
	canceled int

	// free recycles fired/canceled event structs; see the package note
	// on event recycling.
	free []*event
}

// compactFloor is the queue size below which Cancel never compacts:
// tiny queues are cheap to carry and compacting them would just churn.
const compactFloor = 64

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events that have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of queued events, including canceled ones
// that have not yet been discarded.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule queues fn to run after delay seconds. A negative delay is an
// error in the caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// At queues fn to run at absolute time when. Scheduling in the past panics.
func (e *Engine) At(when Time, fn func()) Handle {
	if when < e.now || math.IsNaN(when) {
		panic(fmt.Sprintf("sim: At with time %v in the past of %v", when, e.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.when, ev.fn = when, fn
	e.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// recycle returns a no-longer-queued event to the free list. The
// generation bump is what invalidates every outstanding Handle.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	ev.slot = -1
	e.free = append(e.free, ev)
}

// Cancel marks an event so it will not fire. Canceling an event that has
// already fired (a stale handle — detected by the generation check), or
// canceling twice, is a harmless no-op.
//
// Canceled events normally stay queued until they reach the queue head
// and are dropped lazily; when they come to outnumber live events,
// Cancel compacts the whole queue in one O(n) pass so Pending() and
// queue operations track the live population, not the churn.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled {
		return
	}
	ev.canceled = true
	e.canceled++
	if e.canceled > len(e.heap)/2 && len(e.heap) >= compactFloor {
		e.compact()
	}
}

// Reschedule moves a still-pending event to fire after delay seconds
// from now, re-keying its heap entry in place instead of canceling and
// allocating a fresh event. The rescheduled firing takes a new sequence
// number, so it orders among equal timestamps exactly as a
// cancel-plus-Schedule would.
// It reports false — and does nothing — when the handle is stale or the
// event was canceled; the caller should fall back to Schedule.
func (e *Engine) Reschedule(h Handle, delay Time) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled {
		return false
	}
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Reschedule with invalid delay %v at t=%v", delay, e.now))
	}
	ev.when = e.now + delay
	i := ev.slot
	old := e.heap[i]
	x := entry{when: ev.when, seq: e.nextSeq, ev: ev}
	e.nextSeq++
	if eventLess(&x, &old) {
		e.up(i, x)
	} else {
		e.down(i, x)
	}
	return true
}

// compact removes every canceled event from the queue in one pass and
// re-heapifies the survivors. Their pop order is unaffected: (when, seq)
// is a total order, so the pop sequence is a pure function of the queued
// member set.
func (e *Engine) compact() {
	kept := e.heap[:0]
	for _, x := range e.heap {
		if x.ev.canceled {
			e.recycle(x.ev)
			continue
		}
		x.ev.slot = len(kept)
		kept = append(kept, x)
	}
	clear(e.heap[len(kept):])
	e.heap = kept
	// (n+2)/4-1 is the last parent, (n-2)/4, for n ≥ 2 and -1 for an
	// empty or single-entry heap, which needs no sift.
	for i := (len(kept)+2)/4 - 1; i >= 0; i-- {
		e.down(i, kept[i])
	}
	e.canceled = 0
}

// push queues ev under the next sequence number.
func (e *Engine) push(ev *event) {
	e.heap = append(e.heap, entry{})
	e.up(len(e.heap)-1, entry{when: ev.when, seq: e.nextSeq, ev: ev})
	e.nextSeq++
}

// pop removes and returns the minimum event. Caller ensures the heap is
// not empty.
func (e *Engine) pop() *event {
	h := e.heap
	ev := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	e.heap = h[:n]
	if n > 0 {
		e.down(0, last)
	}
	return ev
}

// up places x at hole i and sifts it toward the root.
func (e *Engine) up(i int, x entry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.slot = i
		i = p
	}
	h[i] = x
	x.ev.slot = i
}

// down places x at hole i and sifts it toward the leaves.
func (e *Engine) down(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if eventLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !eventLess(&h[m], &x) {
			break
		}
		h[i] = h[m]
		h[i].ev.slot = i
		i = m
	}
	h[i] = x
	x.ev.slot = i
}

// Stop requests that Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last Run returned because Stop was
// called. Run clears the flag on entry, so a windowed driver that calls
// Run repeatedly (internal/shard's coordinator) can distinguish "window
// exhausted, keep going" from "the simulation asked to end".
func (e *Engine) Stopped() bool { return e.stopped }

// Run processes events in timestamp order until the queue is empty, the
// clock would pass until, or Stop is called. Events with timestamp exactly
// equal to until still fire. It returns the final clock value, which is
// until when the run ended because simulated time was exhausted.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopped = false

	for !e.stopped && len(e.heap) > 0 && e.heap[0].when <= until {
		ev := e.pop()
		if ev.canceled {
			e.canceled--
			e.recycle(ev)
			continue
		}
		e.now = ev.when
		e.processed++
		fn := ev.fn
		// Recycle before running: the callback may Schedule and get
		// this very struct back, under a new generation.
		e.recycle(ev)
		fn()
	}
	if !e.stopped && e.now < until && !math.IsInf(until, 1) {
		e.now = until
	}
	return e.now
}

// RunAll processes every queued event regardless of timestamp. It is meant
// for tests; simulations should use Run with an explicit horizon.
func (e *Engine) RunAll() Time {
	return e.Run(math.Inf(1))
}
