package sim

import "testing"

// The event pool recycles fired and canceled events under a bumped
// generation. These tests pin the safety contract: a Handle kept past
// its event's lifetime must be inert, even after the underlying struct
// has been reissued to an unrelated caller.

func TestPoolReusesFiredEvents(t *testing.T) {
	e := NewEngine()
	h1 := e.Schedule(1, func() {})
	e.RunAll()
	h2 := e.Schedule(1, func() {})
	if h1.ev != h2.ev {
		t.Fatal("fired event was not recycled for the next Schedule")
	}
	if h1.gen == h2.gen {
		t.Fatal("recycled event reissued under the same generation")
	}
}

func TestPoolCancelAfterFire(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	e.RunAll()
	// h is stale; the struct is on the free list. Cancel must no-op.
	e.Cancel(h)
	fired := false
	h2 := e.Schedule(1, func() { fired = true })
	_ = h2
	e.RunAll()
	if !fired {
		t.Fatal("stale Cancel leaked onto the recycled event")
	}
}

func TestPoolCancelAfterRecycle(t *testing.T) {
	e := NewEngine()
	h1 := e.Schedule(1, func() {})
	e.RunAll()

	// The same struct now backs an unrelated event. A stale Cancel via
	// h1 must not touch it, and stale accessors must read as inert.
	fired := false
	h2 := e.Schedule(1, func() { fired = true })
	if h1.ev != h2.ev {
		t.Fatal("test setup: expected the pooled struct to be reissued")
	}
	e.Cancel(h1)
	if h1.Pending() || h1.Canceled() || h1.When() != 0 {
		t.Fatalf("stale handle not inert: Pending=%v Canceled=%v When=%v",
			h1.Pending(), h1.Canceled(), h1.When())
	}
	if !h2.Pending() {
		t.Fatal("stale Cancel canceled the recycled event")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire after a stale Cancel")
	}
}

func TestPoolCancelCanceledThenRecycled(t *testing.T) {
	e := NewEngine()
	h1 := e.Schedule(1, func() {})
	e.Cancel(h1)
	e.RunAll() // drops the canceled event, recycles the struct

	fired := false
	h2 := e.Schedule(1, func() { fired = true })
	e.Cancel(h1) // stale: generation bumped on recycle
	e.RunAll()
	if !fired {
		t.Fatal("stale Cancel of a canceled-then-recycled event leaked")
	}
	_ = h2
}

func TestRescheduleReusesEvent(t *testing.T) {
	e := NewEngine()
	fired := -1.0
	h := e.Schedule(1, func() { fired = e.Now() })
	if !e.Reschedule(h, 5) {
		t.Fatal("Reschedule of a pending event reported false")
	}
	if h.When() != 5 {
		t.Fatalf("When() after Reschedule = %v, want 5", h.When())
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after Reschedule, want 1 (slot reuse)", got)
	}
	e.RunAll()
	if fired != 5 {
		t.Fatalf("rescheduled event fired at %v, want 5", fired)
	}
}

func TestRescheduleStaleOrCanceled(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(1, func() {})
	e.RunAll()
	if e.Reschedule(h, 1) {
		t.Fatal("Reschedule of a fired (stale) handle reported true")
	}
	h2 := e.Schedule(1, func() {})
	e.Cancel(h2)
	if e.Reschedule(h2, 1) {
		t.Fatal("Reschedule of a canceled event reported true")
	}
	e.RunAll()
}

// Rescheduling must take a fresh sequence number so the event orders
// among equal timestamps exactly as cancel-plus-Schedule would.
func TestRescheduleOrdersAsFreshSchedule(t *testing.T) {
	e := NewEngine()
	var got []string
	h := e.Schedule(1, func() { got = append(got, "moved") })
	e.Schedule(3, func() { got = append(got, "first") })
	e.Reschedule(h, 3) // same instant as "first", but rescheduled later
	e.RunAll()
	if len(got) != 2 || got[0] != "first" || got[1] != "moved" {
		t.Fatalf("fire order %v, want [first moved]", got)
	}
}

func TestTimerResetReusesEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	tm := NewTimer(e, func() { count++ })
	tm.Reset(1)
	ev := tm.h.ev
	tm.Reset(2) // pending: must reuse the queued event in place
	if tm.h.ev != ev || !tm.h.Pending() {
		t.Fatal("Timer.Reset on a pending timer did not reuse its event")
	}
	if tm.Deadline() != 2 {
		t.Fatalf("Deadline = %v, want 2", tm.Deadline())
	}
	e.RunAll()
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	if tm.Active() {
		t.Fatal("timer still Active after firing")
	}
	tm.Reset(1) // fired handle is stale: falls back to a fresh Schedule
	e.RunAll()
	if count != 2 {
		t.Fatalf("timer fired %d times after re-arm, want 2", count)
	}
}
