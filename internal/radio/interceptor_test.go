package radio

import (
	"slices"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
)

func TestInterceptorCorruptsVetoedReceptions(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.channel.Interceptor = func(f *Frame, from, to geom.Point) bool { return false }
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(1)
	if len(b.received) != 0 {
		t.Fatal("vetoed frame was delivered")
	}
	c := r.channel.Counters()
	if c.Jammed != 1 {
		t.Fatalf("Jammed = %d, want 1", c.Jammed)
	}
	if c.Deliveries != 0 {
		t.Fatalf("Deliveries = %d, want 0", c.Deliveries)
	}
}

func TestInterceptorIsPositional(t *testing.T) {
	// Veto only receptions whose receiver sits west of x=150: the near
	// host is jammed, the far (but in-range) host still receives.
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	near := r.addHost(1, 100, 0)
	far := r.addHost(2, 200, 0)
	r.channel.Interceptor = func(f *Frame, from, to geom.Point) bool { return to.X >= 150 }
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(1)
	if len(near.received) != 0 {
		t.Fatal("jammed receiver got the frame")
	}
	if len(far.received) != 1 {
		t.Fatal("clear receiver missed the frame")
	}
}

func TestInterceptorJammedReceiverStillPaysEnergy(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.channel.Interceptor = func(f *Frame, from, to geom.Point) bool { return false }
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: 1, Bytes: 512})
	})
	r.engine.Run(0.05)
	now := r.engine.Now()
	if got := b.battery.ConsumedIn(now, energy.Receive); got <= 0 {
		t.Fatalf("jammed receiver consumed %g J in receive mode, want > 0", got)
	}
}

func TestNilInterceptorDeliversNormally(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(1)
	if len(b.received) != 1 {
		t.Fatal("frame lost without an interceptor")
	}
	if r.channel.Counters().Jammed != 0 {
		t.Fatal("Jammed counted without an interceptor")
	}
}

// TestInterceptReachSkipsHookOutOfReach: a frame whose sender the
// Interceptor cannot reach is scanned as if no hook were installed. The
// stationary population's attach snapshots settle every candidate, so
// the indexed scan makes no hook call and no live read; the BruteForce
// reference still hands each in-range receiver to the hook. A frame in
// reach reads each in-range receiver live and calls the hook for it.
func TestInterceptReachSkipsHookOutOfReach(t *testing.T) {
	type outcome struct {
		calls, asked int
		live, frames uint64
		received     []int
	}
	run := func(brute, reach bool) outcome {
		cfg := DefaultConfig()
		cfg.BruteForce = brute
		r := newPacerRig(cfg)
		r.addPacer(0, 500, 500, 0, 0)
		r.addPacer(1, 560, 500, 0, 0)
		r.addPacer(2, 500, 700, 0, 0)
		r.addPacer(3, 900, 500, 0, 0) // out of range
		var out outcome
		r.channel.Interceptor = func(f *Frame, from, to geom.Point) bool {
			out.calls++
			return true
		}
		r.channel.InterceptReach = func(from geom.Point, rng float64) bool {
			out.asked++
			if from != (geom.Point{X: 500, Y: 500}) || rng != cfg.Range {
				t.Errorf("reach asked about (%v, %v), want the sender at (500,500) and Range %v", from, rng, cfg.Range)
			}
			return reach
		}
		r.sendAt(0.1, 0)
		r.engine.Run(1)
		out.live = r.channel.RxCacheStats().LiveReads
		out.frames = r.channel.RxCacheStats().Intercepted
		for id := hostid.ID(1); id <= 3; id++ {
			out.received = append(out.received, len(r.hosts[id].received))
		}
		return out
	}
	want := []int{1, 1, 0}
	for _, tc := range []struct {
		name         string
		brute, reach bool
		calls, asked int
		live, frames uint64
	}{
		{"indexed-out-of-reach", false, false, 0, 1, 0, 0},
		{"indexed-in-reach", false, true, 2, 1, 2, 1},
		// The reference never asks: it reads every awake station and
		// calls the hook for each one in range.
		{"bruteforce", true, false, 2, 0, 3, 1},
	} {
		got := run(tc.brute, tc.reach)
		if got.calls != tc.calls || got.asked != tc.asked || got.live != tc.live || got.frames != tc.frames {
			t.Errorf("%s: %d hook calls, %d reach questions, %d live reads, %d intercepted frames; want %d, %d, %d, %d",
				tc.name, got.calls, got.asked, got.live, got.frames, tc.calls, tc.asked, tc.live, tc.frames)
		}
		if !slices.Equal(got.received, want) {
			t.Errorf("%s: hosts 1-3 received %v frames, want %v", tc.name, got.received, want)
		}
	}
}
