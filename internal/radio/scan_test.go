package radio

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// pacer is an endpoint moving in a straight line at constant velocity;
// its position is a pure function of engine time, like the real node
// layer's.
type pacer struct {
	id       hostid.ID
	engine   *sim.Engine
	battery  *energy.Battery
	x0, y0   float64
	vx, vy   float64
	received []*Frame
}

func (h *pacer) ID() hostid.ID            { return h.id }
func (h *pacer) Battery() *energy.Battery { return h.battery }
func (h *pacer) Deliver(f *Frame)         { h.received = append(h.received, f) }
func (h *pacer) TxFailed(*Frame)          {}
func (h *pacer) MaxSpeedMS() float64      { return math.Hypot(h.vx, h.vy) }
func (h *pacer) Position() geom.Point     { return h.at(h.engine.Now()) }

// at is the pacer's position at time t.
func (h *pacer) at(t float64) geom.Point {
	return geom.Point{X: h.x0 + h.vx*t, Y: h.y0 + h.vy*t}
}

// NextExit is the conservative straight-line bound: the current
// distance to the nearest edge of bounds over the speed.
func (h *pacer) NextExit(t float64, bounds geom.Rect) float64 {
	v := math.Hypot(h.vx, h.vy)
	if v == 0 {
		return math.Inf(1)
	}
	p := h.at(t)
	d := math.Min(math.Min(p.X-bounds.Min.X, bounds.Max.X-p.X),
		math.Min(p.Y-bounds.Min.Y, bounds.Max.Y-p.Y))
	if d < 0 {
		return t
	}
	return t + d/v
}

// pacerRig is a rig over pacer hosts (indexed, speed-bounded), the
// population the position snapshots are built for.
type pacerRig struct {
	engine  *sim.Engine
	channel *Channel
	hosts   map[hostid.ID]*pacer
}

func newPacerRig(cfg Config) *pacerRig {
	e := sim.NewEngine()
	return &pacerRig{
		engine:  e,
		channel: NewChannel(e, sim.NewRNG(1), cfg),
		hosts:   make(map[hostid.ID]*pacer),
	}
}

func (r *pacerRig) addPacer(id hostid.ID, x, y, vx, vy float64) *pacer {
	h := &pacer{
		id: id, engine: r.engine,
		battery: energy.NewBattery(energy.PaperModel(), 1e6),
		x0:      x, y0: y, vx: vx, vy: vy,
	}
	r.hosts[id] = h
	r.channel.Attach(h)
	return h
}

// sendAt queues a broadcast from host from at absolute time t.
func (r *pacerRig) sendAt(t float64, from hostid.ID) {
	r.engine.At(t, func() {
		r.channel.Send(from, &Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
}

// liveReadsAfter runs the engine to until and returns the live position
// reads the receiver scans made on the way.
func (r *pacerRig) liveReadsAfter(until float64) uint64 {
	before := r.channel.RxCacheStats().LiveReads
	r.engine.Run(until)
	return r.channel.RxCacheStats().LiveReads - before
}

// TestRxCacheDriftRecheck pins which candidates the scan reads live.
// The position snapshots are the scan's receiver cache, and a live read
// rechecks a candidate whose snapshot has drifted too far. Host 1 starts 1 m inside range walking out at 10 m/s, host 2 1 m
// outside walking in, and host 3 sits deep inside range. The first frame
// leaves within a millisecond of the snapshots Attach took, so every
// margin covers the drift and nothing is read. Half a second later the
// two edge hosts may have drifted 5 m, past their 1 m margins, so only
// they are read; both cross the range edge, so only host 2 and host 3
// receive the second frame.
func TestRxCacheDriftRecheck(t *testing.T) {
	r := newPacerRig(DefaultConfig())
	r.addPacer(0, 500, 500, 0, 0)
	out := r.addPacer(1, 749, 500, 10, 0)
	in := r.addPacer(2, 249, 520, 10, 0)
	deep := r.addPacer(3, 560, 500, 0, 0)
	r.sendAt(0, 0)
	if n := r.liveReadsAfter(0.25); n != 0 {
		t.Errorf("first frame read %d positions live, want 0", n)
	}
	r.sendAt(0.5, 0)
	if n := r.liveReadsAfter(1); n != 2 {
		t.Errorf("second frame read %d positions live, want 2 (the edge hosts)", n)
	}
	for _, c := range []struct {
		h    *pacer
		want int
	}{{out, 1}, {in, 1}, {deep, 2}} {
		if got := len(c.h.received); got != c.want {
			t.Errorf("host %v received %d frames, want %d", c.h.id, got, c.want)
		}
	}
}

// TestRxCacheMissOnMembershipEvents: no membership event between two
// transmissions from one sender may leave the second scan deciding a
// host from state the event made stale. In the snapshot cache a hit is a
// candidate settled from its snapshot and a miss is a live position
// read, by the scan (LiveReads) or by the spatial index, which refreshes
// the snapshot as it does. Every population here is stationary unless
// stated, so vmax is 0 and any snapshot taken after the last event
// settles its host.
func TestRxCacheMissOnMembershipEvents(t *testing.T) {
	live := func(r *pacerRig) uint64 { return r.channel.RxCacheStats().LiveReads }

	t.Run("baseline-hit", func(t *testing.T) {
		r := newPacerRig(DefaultConfig())
		r.addPacer(0, 500, 500, 0, 0)
		b := r.addPacer(1, 560, 500, 0, 0)
		r.sendAt(0.1, 0)
		r.sendAt(0.3, 0)
		r.engine.Run(1)
		if n := live(r); n != 0 {
			t.Fatalf("read %d positions live, want both frames settled from the attach snapshot", n)
		}
		if got := len(b.received); got != 2 {
			t.Fatalf("receiver got %d frames, want 2", got)
		}
	})

	t.Run("attach-forces-miss", func(t *testing.T) {
		// The index's insert read is the miss: the attach itself
		// snapshots the new host, so the second scan sees it at once.
		r := newPacerRig(DefaultConfig())
		r.addPacer(0, 500, 500, 0, 0)
		r.addPacer(1, 560, 500, 0, 0)
		r.sendAt(0.1, 0)
		r.engine.At(0.2, func() { r.addPacer(2, 440, 500, 0, 0) })
		r.sendAt(0.3, 0)
		r.engine.Run(0.25)
		if s := r.channel.snap[2]; s.t != 0.2 || s.p != (geom.Point{X: 440, Y: 500}) {
			t.Fatalf("snapshot after attach = %+v, want (440,500) at 0.2", s)
		}
		r.engine.Run(1)
		if got := len(r.hosts[2].received); got != 1 {
			t.Fatalf("late attacher received %d frames, want 1", got)
		}
		if n := live(r); n != 0 {
			t.Fatalf("read %d positions live, want the attach snapshot to settle the late attacher", n)
		}
	})

	t.Run("detach-forces-miss", func(t *testing.T) {
		// A detached host leaves the index, so the second scan neither
		// examines it nor consults its snapshot.
		r := newPacerRig(DefaultConfig())
		r.addPacer(0, 500, 500, 0, 0)
		r.addPacer(1, 560, 500, 0, 0)
		r.addPacer(2, 440, 500, 0, 0)
		r.sendAt(0.1, 0)
		r.engine.Run(0.15)
		first := r.channel.RxCacheStats().Candidates
		r.engine.At(0.2, func() { r.channel.Detach(2) })
		r.sendAt(0.3, 0)
		r.engine.Run(1)
		if second := r.channel.RxCacheStats().Candidates - first; second != first-1 {
			t.Fatalf("second scan examined %d candidates, want %d (the first scan's minus the detached host)", second, first-1)
		}
		if got := len(r.hosts[2].received); got != 1 {
			t.Fatalf("detached host received %d frames, want only the first", got)
		}
		if n := live(r); n != 0 {
			t.Fatalf("read %d positions live, want 0", n)
		}
	})

	t.Run("rebucket-forces-miss", func(t *testing.T) {
		// Host 1 walks +x at 20 m/s from x=560. The index re-checks its
		// bucket whenever the host may have left the bucket's loose
		// bounds, and each re-check reads the position, so by the second
		// frame the snapshot is the index's latest read, not the attach.
		r := newPacerRig(DefaultConfig())
		r.addPacer(0, 500, 500, 0, 0)
		b := r.addPacer(1, 560, 500, 20, 0)
		r.sendAt(0.1, 0)
		r.sendAt(6.0, 0)
		r.engine.Run(5.9)
		s := r.channel.snap[1]
		if !(s.t > 0.1 && s.t <= 5.9) {
			t.Fatalf("snapshot taken at %v, want a re-bucket read after the first frame", s.t)
		}
		if s.p != b.at(s.t) {
			t.Fatalf("snapshot %v is not the host's position %v at %v", s.p, b.at(s.t), s.t)
		}
		r.engine.Run(7)
		if got := len(b.received); got != 2 {
			t.Fatalf("walking host received %d frames, want 2", got)
		}
	})

	// Property sweep: random stationary populations within 212 m of the
	// sender (all in range), with a random attach or detach between two
	// transmissions. Every host attached at the second frame must get it
	// and a detached one must not, with no live read.
	t.Run("random-attach-detach", func(t *testing.T) {
		rng := sim.NewRNG(42)
		for trial := 0; trial < 25; trial++ {
			r := newPacerRig(DefaultConfig())
			r.addPacer(0, 500, 500, 0, 0)
			n := 5 + rng.Intn("trial", 20)
			for i := 1; i <= n; i++ {
				x := rng.Uniform("x", 350, 650)
				y := rng.Uniform("y", 350, 650)
				r.addPacer(hostid.ID(i), x, y, 0, 0)
			}
			r.sendAt(0.1, 0)
			want := make(map[hostid.ID]int, n+1)
			for i := 1; i <= n; i++ {
				want[hostid.ID(i)] = 2
			}
			if trial%2 == 0 {
				x := rng.Uniform("ax", 350, 650)
				y := rng.Uniform("ay", 350, 650)
				want[hostid.ID(n+1)] = 1
				r.engine.At(0.2, func() { r.addPacer(hostid.ID(n+1), x, y, 0, 0) })
			} else {
				victim := hostid.ID(1 + rng.Intn("victim", n))
				want[victim] = 1
				r.engine.At(0.2, func() { r.channel.Detach(victim) })
			}
			r.sendAt(0.3, 0)
			r.engine.Run(1)
			for id, w := range want {
				if got := len(r.hosts[id].received); got != w {
					t.Fatalf("trial %d: host %v received %d frames, want %d", trial, id, got, w)
				}
			}
			if n := live(r); n != 0 {
				t.Fatalf("trial %d: read %d positions live, want 0", trial, n)
			}
		}
	})
}

// TestRxCacheListenFlipStaysHit: sleep and wake leave the snapshots
// alone. A sleeping candidate is skipped on the awake table before its
// snapshot is consulted, and after waking the snapshot Attach took
// still settles it, so duty-cycled protocols (SPAN and GAF put most of
// the population to sleep) pay no live read for the flips.
func TestRxCacheListenFlipStaysHit(t *testing.T) {
	r := newPacerRig(DefaultConfig())
	r.addPacer(0, 500, 500, 0, 0)
	b := r.addPacer(1, 560, 500, 0, 0)
	r.sendAt(0.1, 0)
	r.engine.At(0.2, func() { r.channel.SetListening(1, false) })
	r.sendAt(0.3, 0)
	r.engine.At(0.4, func() { r.channel.SetListening(1, true) })
	r.sendAt(0.5, 0)
	if n := r.liveReadsAfter(1); n != 0 {
		t.Fatalf("read %d positions live, want listen flips settled from the snapshot", n)
	}
	if got := len(b.received); got != 2 {
		t.Fatalf("flipping host received %d frames, want 2 (asleep for the middle one)", got)
	}
}

// unbounded is a pacer that cannot bound its own speed.
type unbounded struct{ pacer }

func (*unbounded) MaxSpeedMS() float64 { return math.Inf(1) }

// TestUnboundedSpeedReadsEveryCandidate: one host without a speed bound
// makes vmax infinite, so no snapshot settles anything and every awake
// candidate is read live, even at the instant its snapshot was taken.
func TestUnboundedSpeedReadsEveryCandidate(t *testing.T) {
	r := newPacerRig(DefaultConfig())
	r.addPacer(0, 500, 500, 0, 0)
	r.addPacer(1, 560, 500, 0, 0)
	r.addPacer(2, 760, 500, 0, 0) // out of range, but an index candidate
	u := &unbounded{pacer{id: 3, engine: r.engine, battery: energy.NewBattery(energy.PaperModel(), 1e6), x0: 500, y0: 560}}
	r.channel.Attach(u)
	r.addPacer(4, 440, 500, 0, 0)
	r.channel.SetListening(4, false)
	if !math.IsInf(r.channel.vmax, 1) {
		t.Fatalf("vmax = %v with an unbounded host attached, want +Inf", r.channel.vmax)
	}
	r.sendAt(0, 0)
	r.sendAt(0.5, 0)
	// Hosts 1, 2 and 3 are awake candidates of both frames; the sleeping
	// host 4 is never read.
	if n := r.liveReadsAfter(1); n != 6 {
		t.Errorf("read %d positions live over two frames, want 6", n)
	}
	if len(r.hosts[1].received) != 2 || len(u.received) != 2 || len(r.hosts[2].received) != 0 {
		t.Errorf("received %d, %d, %d frames, want 2, 2, 0",
			len(r.hosts[1].received), len(u.received), len(r.hosts[2].received))
	}
}

// TestReattachInvalidatesSnapshot detaches a host and re-attaches its
// ID as an endpoint elsewhere. With vmax 0 a stale snapshot would settle
// the new endpoint at the old position forever, so Attach must forget
// it.
func TestReattachInvalidatesSnapshot(t *testing.T) {
	r := newPacerRig(DefaultConfig())
	r.addPacer(0, 500, 500, 0, 0)
	attach := func(x float64) func() int {
		h := r.addPacer(1, x, 500, 0, 0)
		return func() int { return len(h.received) }
	}
	near := attach(560)
	r.sendAt(0, 0)
	r.engine.Run(0.5)
	r.channel.Detach(1)
	far := attach(900)
	r.sendAt(0.5, 0)
	r.engine.Run(1)
	r.channel.Detach(1)
	nearAgain := attach(600)
	r.sendAt(1, 0)
	r.engine.Run(2)
	if r.channel.vmax != 0 {
		t.Fatalf("vmax = %v, want 0", r.channel.vmax)
	}
	if near() != 1 || far() != 0 || nearAgain() != 1 {
		t.Errorf("received %d, %d, %d frames, want 1, 0, 1", near(), far(), nearAgain())
	}
}

// TestPosSnapPointerFree is a memory gate on the position snapshots: one
// per host ID, so each must stay at 24 bytes with no pointer for the GC
// to scan.
func TestPosSnapPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(posSnap{}); sz > 24 {
		t.Errorf("posSnap is %d bytes, want at most 24", sz)
	}
	if typ := reflect.TypeFor[posSnap](); hasPointers(typ) {
		t.Errorf("%v holds a pointer", typ)
	}
}
