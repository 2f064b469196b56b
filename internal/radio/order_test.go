package radio

import (
	"slices"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// The receiver scans order candidates by host ID with a bitmap sweep
// over 64-ID words. These tests pin that order against the BruteForce
// reference, with IDs straddling word boundaries.

// orderMover is an indexed endpoint that logs, into a log shared by the
// whole population, its ID on every delivery.
type orderMover struct {
	pacer
	log *[]hostid.ID
}

func (h *orderMover) Deliver(*Frame) { *h.log = append(*h.log, h.id) }

// orderStub is a Mover-less endpoint (kept on the unindexed side list)
// that logs like orderMover.
type orderStub struct {
	fakeHost
	log *[]hostid.ID
}

func (h *orderStub) Deliver(*Frame) { *h.log = append(*h.log, h.id) }

// orderHost describes one station of an ordering scenario.
type orderHost struct {
	id     hostid.ID
	x, y   float64
	asleep bool
	stub   bool // attach without Mover
}

// scanModes are the three receiver-scan paths, by name.
var scanModes = []struct {
	name string
	cfg  func(*Config)
}{
	{"brute", func(c *Config) { c.BruteForce = true }},
	{"norxcache", func(c *Config) { c.NoRxCache = true }},
	{"cached", func(*Config) {}},
}

type orderRig struct {
	engine  *sim.Engine
	channel *Channel
	log     []hostid.ID
}

func newOrderRig(mode func(*Config)) *orderRig {
	cfg := DefaultConfig()
	mode(&cfg)
	e := sim.NewEngine()
	return &orderRig{engine: e, channel: NewChannel(e, sim.NewRNG(1), cfg)}
}

func (r *orderRig) attach(h orderHost) {
	bat := energy.NewBattery(energy.PaperModel(), 1e6)
	if h.stub {
		r.channel.Attach(&orderStub{fakeHost: fakeHost{id: h.id, pos: geom.Point{X: h.x, Y: h.y}, battery: bat}, log: &r.log})
	} else {
		r.channel.Attach(&orderMover{pacer: pacer{id: h.id, engine: r.engine, battery: bat, x0: h.x, y0: h.y}, log: &r.log})
	}
	if h.asleep {
		r.channel.SetListening(h.id, false)
	}
}

// broadcast sends one broadcast from src at time at and runs the engine
// past its end; it returns the IDs that received it, in delivery order.
func (r *orderRig) broadcast(src hostid.ID, at float64) []hostid.ID {
	r.log = r.log[:0]
	r.engine.Schedule(at-r.engine.Now(), func() {
		r.channel.Send(src, &Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	r.engine.Run(at + 0.5)
	return slices.Clone(r.log)
}

// wantReceivers is the admitted receiver sequence by definition:
// ascending IDs of the listening hosts within range of src.
func wantReceivers(hosts []orderHost, src hostid.ID, r float64) []hostid.ID {
	var from geom.Point
	for _, h := range hosts {
		if h.id == src {
			from = geom.Point{X: h.x, Y: h.y}
		}
	}
	var want []hostid.ID
	for _, h := range hosts {
		if h.id != src && !h.asleep && from.Dist2(geom.Point{X: h.x, Y: h.y}) <= r*r {
			want = append(want, h.id)
		}
	}
	slices.Sort(want)
	return want
}

// checkNearIDs asserts NearIDs around p is strictly ascending, holds
// every attached host in range and, under BruteForce, every attached
// host.
func checkNearIDs(t *testing.T, r *orderRig, hosts []orderHost, p geom.Point, brute bool) {
	t.Helper()
	rng := r.channel.Config().Range
	got := r.channel.NearIDs(p, rng, nil)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("NearIDs not strictly ascending: %v", got)
		}
	}
	for _, h := range hosts {
		in := slices.Contains(got, h.id)
		if (brute || h.stub || p.Dist2(geom.Point{X: h.x, Y: h.y}) <= rng*rng) && !in {
			t.Fatalf("NearIDs %v misses host %v", got, h.id)
		}
	}
}

func TestReceiverOrderAcrossWordBoundaries(t *testing.T) {
	// Attached in scrambled order; 150 is the Mover-less stub, 129 sleeps
	// and 201 is out of range of the sender, 63.
	hosts := []orderHost{
		{id: 128, x: 180, y: 120}, {id: 1, x: 60, y: 20}, {id: 200, x: 10, y: 200},
		{id: 63, x: 100, y: 100}, {id: 65, x: 300, y: 90}, {id: 0, x: 0, y: 0},
		{id: 150, x: 120, y: 40, stub: true}, {id: 201, x: 900, y: 900},
		{id: 62, x: 220, y: 230}, {id: 127, x: 30, y: 160}, {id: 129, x: 110, y: 110, asleep: true},
		{id: 64, x: 140, y: 60},
	}
	const src = 63
	want := wantReceivers(hosts, src, DefaultConfig().Range)
	if len(want) != 9 {
		t.Fatalf("fixture admits %d receivers, want 9: %v", len(want), want)
	}
	for _, m := range scanModes {
		r := newOrderRig(m.cfg)
		for _, h := range hosts {
			r.attach(h)
		}
		brute := m.name == "brute"
		if got := r.broadcast(src, 0.1); !slices.Equal(got, want) {
			t.Errorf("%s: receivers %v, want %v", m.name, got, want)
		}
		checkNearIDs(t, r, hosts, geom.Point{X: 100, Y: 100}, brute)

		// Detach and re-attach a word-boundary ID: the slot is reused
		// and the order is unchanged.
		r.channel.Detach(64)
		if got := r.broadcast(src, 1); !slices.Equal(got, slices.DeleteFunc(slices.Clone(want), func(id hostid.ID) bool { return id == 64 })) {
			t.Errorf("%s: receivers after detaching 64: %v", m.name, got)
		}
		r.attach(orderHost{id: 64, x: 140, y: 60})
		if got := r.broadcast(src, 2); !slices.Equal(got, want) {
			t.Errorf("%s: receivers after re-attaching 64: %v, want %v", m.name, got, want)
		}
		checkNearIDs(t, r, hosts, geom.Point{X: 100, Y: 100}, brute)
	}
}

func TestAttachNegativeIDPanics(t *testing.T) {
	for _, m := range scanModes {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Attach of ID -3 did not panic", m.name)
				}
			}()
			r := newOrderRig(m.cfg)
			r.attach(orderHost{id: -3})
		}()
	}
}

// FuzzReceiverOrder decodes a population from the input, four bytes per
// host (ID low byte, ID bit 8 and flags, x, y), and requires all three
// scan paths to deliver two broadcasts from the first host to exactly
// the listening hosts in range, in ascending ID order. The second
// broadcast replays from the receiver cache on the cached path.
func FuzzReceiverOrder(f *testing.F) {
	seed := []byte{}
	for i, id := range []int{63, 0, 1, 62, 64, 65, 127, 128, 129, 200} {
		flags := byte(id>>8) | byte(i%3)<<1 // bit 1: asleep, bit 2: stub
		seed = append(seed, byte(id), flags, byte(40+i*17), byte(60+i*11))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var hosts []orderHost
		seen := map[hostid.ID]bool{}
		for ; len(data) >= 4; data = data[4:] {
			id := hostid.ID(int(data[0]) | int(data[1]&1)<<8)
			if seen[id] {
				continue
			}
			seen[id] = true
			hosts = append(hosts, orderHost{
				id: id, x: float64(data[2]) * 3, y: float64(data[3]) * 3,
				asleep: data[1]&2 != 0 && len(hosts) > 0, // the sender stays awake
				stub:   data[1]&4 != 0,
			})
		}
		if len(hosts) == 0 {
			return
		}
		src := hosts[0].id
		want := wantReceivers(hosts, src, DefaultConfig().Range)
		for _, m := range scanModes {
			r := newOrderRig(m.cfg)
			for _, h := range hosts {
				r.attach(h)
			}
			for _, at := range []float64{0.1, 1} {
				if got := r.broadcast(src, at); !slices.Equal(got, want) {
					t.Fatalf("%s at %v: receivers %v, want %v", m.name, at, got, want)
				}
			}
			checkNearIDs(t, r, hosts, geom.Point{X: hosts[0].x, Y: hosts[0].y}, m.name == "brute")
		}
	})
}
