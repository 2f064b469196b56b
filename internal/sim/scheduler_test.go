package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refEvent is one event in the reference queue.
type refEvent struct {
	when     Time
	seq      uint64
	id       int
	queued   bool // scheduled and not yet popped
	canceled bool
}

// chooser is the randomness a workload draws from: *rand.Rand for the
// seeded tests, a byte stream for the fuzz target.
type chooser interface {
	Intn(n int) int
	Float64() float64
}

// orderHarness drives an Engine and a reference queue in lockstep. The
// reference is a plain slice popped by a linear scan for the (when, seq)
// minimum, the simplest possible implementation of the order the engine
// promises. Every operation is applied to both; every firing must be the
// event the reference pops next, at the reference's timestamp.
type orderHarness struct {
	t       testing.TB
	e       *Engine
	src     chooser
	handles []Handle    // by event id
	refs    []*refEvent // by event id
	queue   []*refEvent // the reference queue
	nextSeq uint64
	fired   int
	// compactions counts mass cancels after which the engine's queue
	// shrank, i.e. Cancel compacted it.
	compactions int
}

func newOrderHarness(t testing.TB, src chooser) *orderHarness {
	return &orderHarness{t: t, e: NewEngine(), src: src}
}

// add records a freshly scheduled engine event in the reference.
func (h *orderHarness) add(when Time, hd Handle) {
	r := &refEvent{when: when, seq: h.nextSeq, id: len(h.refs), queued: true}
	h.nextSeq++
	h.refs = append(h.refs, r)
	h.queue = append(h.queue, r)
	h.handles = append(h.handles, hd)
}

// at queues an event at absolute time when through Engine.At.
func (h *orderHarness) at(when Time, depth int) {
	id := len(h.refs)
	h.add(when, h.e.At(when, func() { h.fire(id, depth) }))
}

// schedule queues an event after delay through Engine.Schedule.
func (h *orderHarness) schedule(delay Time, depth int) {
	id := len(h.refs)
	when := h.e.Now() + delay
	h.add(when, h.e.Schedule(delay, func() { h.fire(id, depth) }))
}

func (h *orderHarness) cancel(id int) {
	h.e.Cancel(h.handles[id])
	if r := h.refs[id]; r.queued {
		r.canceled = true
	}
}

// massCancel cancels every queued event whose id is not a multiple of
// stride, enough to push the engine past its compaction threshold.
func (h *orderHarness) massCancel(stride int) {
	before := h.e.Pending()
	for _, r := range h.refs {
		if r.queued && r.id%stride != 0 {
			h.cancel(r.id)
		}
	}
	if h.e.Pending() < before {
		h.compactions++
	}
}

func (h *orderHarness) reschedule(id int, delay Time) {
	got := h.e.Reschedule(h.handles[id], delay)
	r := h.refs[id]
	if want := r.queued && !r.canceled; got != want {
		h.t.Fatalf("Reschedule(event %d) = %v, reference says %v", id, got, want)
	}
	if got {
		r.when = h.e.Now() + delay
		r.seq = h.nextSeq
		h.nextSeq++
	}
}

// popRef removes and returns the reference's next event to fire,
// dropping canceled ones on the way, or nil when none is due by limit.
func (h *orderHarness) popRef(limit Time) *refEvent {
	for {
		best := -1
		for i, r := range h.queue {
			if best < 0 || r.when < h.queue[best].when ||
				(r.when == h.queue[best].when && r.seq < h.queue[best].seq) {
				best = i
			}
		}
		if best < 0 || h.queue[best].when > limit {
			return nil
		}
		r := h.queue[best]
		h.queue[best] = h.queue[len(h.queue)-1]
		h.queue = h.queue[:len(h.queue)-1]
		r.queued = false
		if !r.canceled {
			return r
		}
	}
}

// fire checks one engine firing against the reference, then lets the
// callback act on the queue: nested spawns (bounded by depth), cancels
// and reschedules from inside a running event.
func (h *orderHarness) fire(id int, depth int) {
	h.fired++
	want := h.popRef(h.e.Now())
	if want == nil || want.id != id || want.when != h.e.Now() {
		h.t.Fatalf("fire %d: engine fired event %d at %v, reference expects %+v", h.fired, id, h.e.Now(), want)
	}
	if depth > 0 && h.src.Intn(3) == 0 {
		h.schedule(h.src.Float64()*float64(h.src.Intn(50)+1), depth-1)
	}
	switch h.src.Intn(8) {
	case 0:
		h.cancel(h.src.Intn(len(h.refs)))
	case 1:
		h.reschedule(h.src.Intn(len(h.refs)), h.src.Float64()*20)
	}
}

// op applies one random top-level operation.
func (h *orderHarness) op() {
	switch h.src.Intn(12) {
	case 0: // burst of simultaneous events (FIFO tie-break)
		when := h.e.Now() + h.src.Float64()*100
		for j := 0; j < 3; j++ {
			h.at(when, 1)
		}
	case 1: // far-future event
		h.schedule(1000+h.src.Float64()*1e6, 0)
	case 2: // cancel a random earlier event (often fired: a no-op)
		if len(h.refs) > 0 {
			h.cancel(h.src.Intn(len(h.refs)))
		}
	case 3: // reschedule a random earlier event
		if len(h.refs) > 0 {
			h.reschedule(h.src.Intn(len(h.refs)), h.src.Float64()*200)
		}
	case 4: // microsecond-scale clustering
		h.schedule(h.src.Float64()*1e-4, 1)
	case 5: // an event that only an unbounded run reaches
		h.at(math.Inf(1), 1)
	case 6: // cancel most of the queue, forcing a compaction
		h.massCancel(2 + h.src.Intn(3))
	default:
		h.schedule(h.src.Float64()*300, 2)
	}
}

// finish runs the engine to horizon and then to exhaustion, checking
// after each that the reference has nothing left that should have fired.
func (h *orderHarness) finish(horizon Time) {
	h.e.Run(horizon)
	if r := h.popRef(horizon); r != nil {
		h.t.Fatalf("Run(%v) returned with event %d at %v still due", horizon, r.id, r.when)
	}
	h.e.RunAll()
	if r := h.popRef(math.Inf(1)); r != nil {
		h.t.Fatalf("RunAll returned with event %d at %v still queued", r.id, r.when)
	}
}

// schedulerTrace drives one engine through a seeded random workload of
// schedules, cancels, mass cancels, reschedules and nested scheduling,
// checking every firing against the reference queue. The workload ends
// with a burst of 2,500 events at one instant, the shape of thousands of
// host timers sharing a tick, plus a +Inf timestamp.
func schedulerTrace(t *testing.T, seed int64) *orderHarness {
	t.Helper()
	h := newOrderHarness(t, rand.New(rand.NewSource(seed)))
	for i := 0; i < 600; i++ {
		h.op()
	}
	for i := 0; i < 2500; i++ {
		h.at(50, 1)
	}
	h.at(math.Inf(1), 0)
	h.finish(750) // leave some events beyond the horizon for RunAll
	return h
}

// TestSchedulerEquivalence is the engine's order property test: for many
// random workloads the engine fires exactly the sequence the linear-scan
// reference pops.
func TestSchedulerEquivalence(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 25; seed++ {
		h := schedulerTrace(t, seed)
		if h.fired < 2500 {
			t.Fatalf("seed %d: only %d events fired", seed, h.fired)
		}
		compactions += h.compactions
	}
	if compactions == 0 {
		t.Fatal("no workload triggered a queue compaction")
	}
}

// byteSource is a chooser reading fuzz input; it yields zeros once the
// input is exhausted.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) Intn(n int) int { return int(s.next()) % n }

// Float64 has a coarse 1/256 grid, so fuzzed timestamps collide often
// and exercise the FIFO tie-break.
func (s *byteSource) Float64() float64 { return float64(s.next()) / 256 }

// FuzzEngineOrder runs fuzzer-chosen sequences of Schedule, At, Cancel,
// Reschedule and nested spawns, and checks the fire order against the
// reference queue.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 2, 0, 3, 1, 40, 5, 9, 9, 9})
	f.Add([]byte{4, 1, 4, 1, 4, 1, 3, 0, 0, 3, 1, 255, 2, 2, 6, 128, 6, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newOrderHarness(t, &byteSource{b: data})
		for i, n := 0, min(len(data), 512); i < n; i++ {
			h.op()
		}
		h.finish(float64(h.src.Intn(256)) * 3)
	})
}

// TestHeapResizeCycles grows the heap through several doublings, drains
// most of it, and refills it at a different timescale, checking the
// fire order throughout.
func TestHeapResizeCycles(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(7))
	var fired []float64
	for i := 0; i < 500; i++ {
		e.Schedule(r.Float64()*50, func() { fired = append(fired, e.Now()) })
	}
	e.Run(40)
	for i := 0; i < 500; i++ {
		e.Schedule(100+r.Float64()*0.01, func() { fired = append(fired, e.Now()) })
	}
	e.RunAll()
	if len(fired) != 1000 {
		t.Fatalf("fired %d events, want 1000", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("order violated at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// TestHeapInfiniteTimestamp: events at +Inf (or absurdly far out) must
// queue, order after everything finite, and only fire under RunAll.
func TestHeapInfiniteTimestamp(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(math.Inf(1), func() { got = append(got, "inf") })
	e.At(1e300, func() { got = append(got, "far") })
	e.Schedule(1, func() { got = append(got, "near") })
	e.Run(100)
	if len(got) != 1 || got[0] != "near" {
		t.Fatalf("after Run(100) got %v, want [near]", got)
	}
	e.RunAll()
	if len(got) != 3 || got[1] != "far" || got[2] != "inf" {
		t.Fatalf("after RunAll got %v, want [near far inf]", got)
	}
}
