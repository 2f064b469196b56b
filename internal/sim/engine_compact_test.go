package sim

import "testing"

// TestCancelCompactsQueue checks that mass cancellation shrinks the
// queue eagerly instead of carrying dead events until they surface at
// the heap top — and that compaction does not perturb the firing order
// or drop a live event.
func TestCancelCompactsQueue(t *testing.T) {
	e := NewEngine()
	const n = 200
	events := make([]Handle, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		events[i] = e.Schedule(float64(i), func() { fired = append(fired, i) })
	}
	// Cancel every index not divisible by 4: 150 of 200, well past the
	// half-queue threshold.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			e.Cancel(events[i])
		}
	}
	// Compaction keeps the invariant "canceled ≤ half the queue", so the
	// queue can never exceed twice the live population (it would be the
	// full 200 without compaction).
	if live := n / 4; e.Pending() > 2*live {
		t.Fatalf("Pending = %d after mass cancel, want ≤ %d (twice the %d live events)", e.Pending(), 2*live, live)
	}
	e.RunAll()
	if len(fired) != n/4 {
		t.Fatalf("%d events fired, want %d", len(fired), n/4)
	}
	for j, i := range fired {
		if i != j*4 {
			t.Fatalf("firing order broken at %d: got event %d, want %d", j, i, j*4)
		}
	}
}

// TestCancelSmallQueueStaysLazy: below the compaction floor the queue
// keeps canceled events and drops them lazily at pop, which must still
// yield the right survivors.
func TestCancelSmallQueueStaysLazy(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	ran := false
	e.Schedule(2, func() { ran = true })
	e.Cancel(a)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (tiny queues are not compacted)", e.Pending())
	}
	e.RunAll()
	if !ran {
		t.Fatal("surviving event did not fire")
	}
	if e.Processed() != 1 {
		t.Fatalf("Processed = %d, want 1 (canceled event must not count)", e.Processed())
	}
}

// TestCancelAfterPopIsNoop: canceling an event that already fired (or
// was already discarded) must not corrupt the canceled-counter
// bookkeeping that drives compaction.
func TestCancelAfterPopIsNoop(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	e.RunAll()
	e.Cancel(ev) // already fired: stale generation, counter must not move
	e.Cancel(ev) // and double-cancel is equally harmless
	for i := 0; i < 100; i++ {
		e.Schedule(float64(i), func() {})
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", e.Pending())
	}
	e.RunAll()
	if e.Processed() != 101 {
		t.Fatalf("Processed = %d, want 101", e.Processed())
	}
}

// TestCancelCompactsToEmpty: a compaction that finds every queued event
// canceled must leave an empty, usable queue. 63 cancels stay below the
// compaction floor; the 64th event brings the queue to the floor, so
// canceling it compacts a queue with no survivors.
func TestCancelCompactsToEmpty(t *testing.T) {
	e := NewEngine()
	fired := 0
	hs := make([]Handle, 0, compactFloor)
	for i := 0; i < compactFloor-1; i++ {
		hs = append(hs, e.Schedule(float64(i), func() { fired++ }))
	}
	for _, h := range hs {
		e.Cancel(h)
	}
	if e.Pending() != compactFloor-1 {
		t.Fatalf("Pending = %d, want %d (below the floor no compaction runs)", e.Pending(), compactFloor-1)
	}
	e.Cancel(e.Schedule(1, func() { fired++ }))
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after all-canceled compaction, want 0", e.Pending())
	}
	e.RunAll()
	if fired != 0 || e.Processed() != 0 {
		t.Fatalf("fired %d (Processed %d) after canceling everything, want 0", fired, e.Processed())
	}
	// The emptied queue still works.
	e.Schedule(1, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired %d after rescheduling on the emptied queue, want 1", fired)
	}
}
