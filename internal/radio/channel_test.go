package radio

import (
	"math"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// fakeHost is a minimal Endpoint for channel tests: a host standing
// still at pos.
type fakeHost struct {
	id       hostid.ID
	pos      geom.Point
	battery  *energy.Battery
	received []*Frame
}

func (h *fakeHost) ID() hostid.ID            { return h.id }
func (h *fakeHost) Position() geom.Point     { return h.pos }
func (h *fakeHost) MaxSpeedMS() float64      { return 0 }
func (h *fakeHost) Battery() *energy.Battery { return h.battery }
func (h *fakeHost) Deliver(f *Frame)         { h.received = append(h.received, f) }
func (h *fakeHost) TxFailed(*Frame)          {}

// NextExit is the stationary answer: never while inside bounds, now
// when outside.
func (h *fakeHost) NextExit(t float64, bounds geom.Rect) float64 {
	if bounds.Contains(h.pos) {
		return math.Inf(1)
	}
	return t
}

type rig struct {
	engine  *sim.Engine
	channel *Channel
	hosts   map[hostid.ID]*fakeHost
}

func newRig(cfg Config) *rig {
	e := sim.NewEngine()
	return &rig{
		engine:  e,
		channel: NewChannel(e, sim.NewRNG(1), cfg),
		hosts:   make(map[hostid.ID]*fakeHost),
	}
}

func (r *rig) addHost(id hostid.ID, x, y float64) *fakeHost {
	h := &fakeHost{id: id, pos: geom.Point{X: x, Y: y}, battery: energy.NewBattery(energy.PaperModel(), 1e6)}
	r.hosts[id] = h
	r.channel.Attach(h)
	return h
}

func TestBroadcastReachesInRangeHosts(t *testing.T) {
	r := newRig(DefaultConfig())
	a := r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0) // in range
	c := r.addHost(2, 400, 0) // out of range (>250)
	d := r.addHost(3, 249, 0) // just in range
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(1)
	if len(a.received) != 0 {
		t.Error("sender received its own frame")
	}
	if len(b.received) != 1 || len(d.received) != 1 {
		t.Errorf("in-range hosts received %d, %d frames, want 1, 1", len(b.received), len(d.received))
	}
	if len(c.received) != 0 {
		t.Error("out-of-range host received the frame")
	}
}

func TestUnicastOnlyDeliveredToDestination(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	c := r.addHost(2, 50, 0)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: 1, Bytes: 512})
	})
	r.engine.Run(1)
	if len(b.received) != 1 {
		t.Fatalf("destination received %d frames, want 1", len(b.received))
	}
	if len(c.received) != 0 {
		t.Fatal("bystander received a unicast frame")
	}
}

func TestSleepingHostDoesNotReceive(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.channel.SetListening(1, false)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(1)
	if len(b.received) != 0 {
		t.Fatal("sleeping host received a frame")
	}
	if r.channel.Listening(1) {
		t.Fatal("Listening(1) = true after SetListening(false)")
	}
}

func TestWakeMidFrameDoesNotReceive(t *testing.T) {
	// A host that wakes during a frame's airtime missed its start and
	// must not receive it.
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.channel.SetListening(1, false)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: hostid.Broadcast, Bytes: 2000}) // 8 ms airtime
	})
	r.engine.Schedule(0.004, func() { r.channel.SetListening(1, true) })
	r.engine.Run(1)
	if len(b.received) != 0 {
		t.Fatal("host that woke mid-frame received it")
	}
}

func TestSleepMidFrameAbortsReception(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: hostid.Broadcast, Bytes: 2000})
	})
	r.engine.Schedule(0.004, func() { r.channel.SetListening(1, false) })
	r.engine.Run(1)
	if len(b.received) != 0 {
		t.Fatal("host that slept mid-frame still received it")
	}
}

func TestTransmitterPaysTransmitEnergy(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(cfg)
	a := r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: 1, Bytes: 1000})
	})
	r.engine.Run(1)
	air := cfg.AirTime(1000)
	wantTx := air * energy.PaperModel().Power(energy.Transmit)
	gotTx := a.battery.ConsumedIn(1, energy.Transmit)
	if diff := gotTx - wantTx; diff < -1e-9 || diff > wantTx*0.5 {
		t.Errorf("transmit energy = %v, want ≈%v", gotTx, wantTx)
	}
	gotRx := b.battery.ConsumedIn(1, energy.Receive)
	wantRx := air * energy.PaperModel().Power(energy.Receive)
	if diff := gotRx - wantRx; diff < -1e-9 || diff > wantRx*0.5 {
		t.Errorf("receive energy = %v, want ≈%v", gotRx, wantRx)
	}
}

func TestCollisionCorruptsOverlappingReceptions(t *testing.T) {
	// Hidden terminal: two senders out of range of each other, both in
	// range of the middle receiver, transmitting simultaneously.
	cfg := DefaultConfig()
	cfg.MACRetries = 0
	r := newRig(cfg)
	r.addHost(0, 0, 0)
	mid := r.addHost(1, 200, 0)
	r.addHost(2, 400, 0) // 400 m from host 0: mutually hidden
	big := 5000          // 20 ms airtime so overlap is certain
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "a", Dst: hostid.Broadcast, Bytes: big})
	})
	r.engine.Schedule(0.002, func() {
		r.channel.Send(2, &Frame{Kind: "b", Dst: hostid.Broadcast, Bytes: big})
	})
	r.engine.Run(1)
	if len(mid.received) != 0 {
		t.Fatalf("middle host received %d frames despite collision", len(mid.received))
	}
	if r.channel.Counters().Collisions == 0 {
		t.Fatal("no collisions counted")
	}
}

func TestCollisionsDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollisionsEnabled = false
	r := newRig(cfg)
	r.addHost(0, 0, 0)
	mid := r.addHost(1, 200, 0)
	r.addHost(2, 400, 0)
	big := 5000
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "a", Dst: hostid.Broadcast, Bytes: big})
	})
	r.engine.Schedule(0.002, func() {
		r.channel.Send(2, &Frame{Kind: "b", Dst: hostid.Broadcast, Bytes: big})
	})
	r.engine.Run(1)
	if len(mid.received) != 2 {
		t.Fatalf("idealized channel delivered %d frames, want 2", len(mid.received))
	}
}

func TestCSMADefersToBusyMedium(t *testing.T) {
	// Two in-range senders: the second must defer, so both frames are
	// delivered sequentially without collision.
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	r.addHost(1, 100, 0)
	c := r.addHost(2, 50, 0)
	big := 5000
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "a", Dst: hostid.Broadcast, Bytes: big})
	})
	r.engine.Schedule(0.002, func() {
		r.channel.Send(1, &Frame{Kind: "b", Dst: hostid.Broadcast, Bytes: big})
	})
	r.engine.Run(1)
	if len(c.received) != 2 {
		t.Fatalf("receiver got %d frames, want 2 (CSMA should serialize)", len(c.received))
	}
	if r.channel.Counters().DeferredAccess == 0 {
		t.Fatal("no deferrals counted")
	}
}

func TestUnicastRetryAfterCollision(t *testing.T) {
	// Hidden-terminal collision corrupts the first attempt; MAC retries
	// must eventually deliver the unicast frame.
	cfg := DefaultConfig()
	r := newRig(cfg)
	r.addHost(0, 0, 0)
	mid := r.addHost(1, 200, 0)
	r.addHost(2, 400, 0)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: 1, Bytes: 5000})
	})
	r.engine.Schedule(0.002, func() {
		r.channel.Send(2, &Frame{Kind: "noise", Dst: hostid.Broadcast, Bytes: 5000})
	})
	r.engine.Run(1)
	if len(mid.received) == 0 {
		t.Fatal("unicast frame never delivered despite retries")
	}
	if r.channel.Counters().Retries == 0 {
		t.Fatal("no retries counted")
	}
}

func TestUnicastToOutOfRangeFails(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	far := r.addHost(1, 500, 0)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: 1, Bytes: 512})
	})
	r.engine.Run(1)
	if len(far.received) != 0 {
		t.Fatal("out-of-range unicast delivered")
	}
	if r.channel.Counters().UnicastFailed == 0 {
		t.Fatal("failed unicast not counted")
	}
}

func TestDetachStopsTraffic(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.channel.Detach(1)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "data", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(1)
	if len(b.received) != 0 {
		t.Fatal("detached host received a frame")
	}
	if r.channel.Listening(1) {
		t.Fatal("detached host reported listening")
	}
	r.channel.Detach(1) // double detach is a no-op
}

func TestSendFromSleepingPanics(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	r.channel.SetListening(0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Send from sleeping host did not panic")
		}
	}()
	r.channel.Send(0, &Frame{Kind: "x", Dst: hostid.Broadcast, Bytes: 10})
}

func TestSendFromDetachedPanics(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	r.channel.Detach(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Send from detached host did not panic")
		}
	}()
	r.channel.Send(0, &Frame{Kind: "x", Dst: hostid.Broadcast, Bytes: 10})
}

func TestDuplicateAttachPanics(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	r.channel.Attach(&fakeHost{id: 0, battery: energy.NewBattery(energy.PaperModel(), 1)})
}

func TestQueueLimitTailDrop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 2
	r := newRig(cfg)
	r.addHost(0, 0, 0)
	b := r.addHost(1, 100, 0)
	r.engine.Schedule(0.001, func() {
		for i := 0; i < 10; i++ {
			r.channel.Send(0, &Frame{Kind: "data", Dst: 1, Bytes: 512})
		}
	})
	r.engine.Run(5)
	// First frame starts transmitting almost immediately (leaves the
	// queue), then the queue holds 2; total delivered is small.
	if len(b.received) > 3 {
		t.Fatalf("delivered %d frames with queue limit 2, want ≤ 3", len(b.received))
	}
	if len(b.received) == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestAirTime(t *testing.T) {
	cfg := DefaultConfig()
	// 512 bytes at 2 Mbps = 2.048 ms.
	if got := cfg.AirTime(512); got != 512*8/2e6 {
		t.Fatalf("AirTime(512) = %v", got)
	}
}

func TestInRange(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	r.addHost(1, 250, 0)
	r.addHost(2, 251, 0)
	if !r.channel.InRange(0, 1) {
		t.Error("hosts at exactly 250 m not in range")
	}
	if r.channel.InRange(0, 2) {
		t.Error("hosts at 251 m in range")
	}
	if r.channel.InRange(0, 99) {
		t.Error("unknown host in range")
	}
}

func TestSnifferSeesTransmissions(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	r.addHost(1, 100, 0)
	var sniffed []string
	r.channel.Sniffer = func(f *Frame, at float64) { sniffed = append(sniffed, f.Kind) }
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(1)
	if len(sniffed) != 1 || sniffed[0] != "hello" {
		t.Fatalf("sniffed = %v", sniffed)
	}
}

func TestCountersAccounting(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	r.addHost(1, 100, 0)
	r.engine.Schedule(0.001, func() {
		r.channel.Send(0, &Frame{Kind: "a", Dst: 1, Bytes: 100})
		r.channel.Send(0, &Frame{Kind: "b", Dst: hostid.Broadcast, Bytes: 50})
	})
	r.engine.Run(1)
	ct := r.channel.Counters()
	if ct.FramesQueued != 2 || ct.FramesSent != 2 {
		t.Errorf("FramesQueued,Sent = %d,%d, want 2,2", ct.FramesQueued, ct.FramesSent)
	}
	if ct.Deliveries != 2 {
		t.Errorf("Deliveries = %d, want 2", ct.Deliveries)
	}
	if ct.BytesOnAir != 150 {
		t.Errorf("BytesOnAir = %d, want 150", ct.BytesOnAir)
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{Kind: "data", Src: 1, Dst: 2, Bytes: 512}
	if got := f.String(); got != "data host-1->host-2 (512B)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestZeroByteFramePanics(t *testing.T) {
	r := newRig(DefaultConfig())
	r.addHost(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-byte frame did not panic")
		}
	}()
	r.channel.Send(0, &Frame{Kind: "x", Dst: hostid.Broadcast})
}
