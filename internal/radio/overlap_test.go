package radio

import (
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
)

// TestOverlapAccounting drives overlapping receptions through the public
// Channel API and checks Collisions, Jammed and Deliveries against counts
// worked out by hand. Frames are 5000 bytes (20 ms of air) and every
// Send starts within DIFS + 3 slots (0.11 ms), so sends 1 ms apart always
// overlap. Senders that share a receiver are out of range of each other
// (hidden terminals), so carrier sense never defers them. Every case runs
// on all three receiver-scan paths.
func TestOverlapAccounting(t *testing.T) {
	const big = 5000
	type want struct{ collisions, jammed, deliveries, atMid uint64 }
	cases := []struct {
		name string
		// setup attaches the hosts and schedules traffic; it returns the
		// receiver whose deliveries are counted as atMid.
		setup func(t *testing.T, r *rig) *fakeHost
		want  want
	}{
		{
			// Host 0 (0,0) and host 2 (400,0) both reach host 1 (200,0).
			// The second admission corrupts the first reception (+1) and
			// its own (+1). A third frame after both end is clean.
			name: "two overlapping broadcasts",
			setup: func(t *testing.T, r *rig) *fakeHost {
				r.addHost(0, 0, 0)
				mid := r.addHost(1, 200, 0)
				r.addHost(2, 400, 0)
				r.sendAt(0.001, 0, "a", big)
				r.sendAt(0.002, 2, "b", big)
				r.sendAt(0.100, 0, "c", big)
				return mid
			},
			want: want{collisions: 2, deliveries: 1, atMid: 1},
		},
		{
			// Three senders 200 m from host 0 at 120° apart (346 m from
			// each other). The second admission counts 2 (the clean first
			// reception and itself); the third counts 1 (only itself: the
			// other two are corrupted already).
			name: "three overlapping broadcasts",
			setup: func(t *testing.T, r *rig) *fakeHost {
				mid := r.addHost(0, 0, 0)
				r.addHost(1, 200, 0)
				r.addHost(2, -100, 173.205)
				r.addHost(3, -100, -173.205)
				r.sendAt(0.001, 1, "a", big)
				r.sendAt(0.002, 2, "b", big)
				r.sendAt(0.003, 3, "c", big)
				return mid
			},
			want: want{collisions: 3},
		},
		{
			// Host 0's frame is jammed at host 1 (Jammed 1). Host 2's
			// frame then overlaps it: the jammed reception is corrupted
			// already, so only the new reception counts (+1).
			name: "jammed then overlapped",
			setup: func(t *testing.T, r *rig) *fakeHost {
				r.addHost(0, 0, 0)
				mid := r.addHost(1, 200, 0)
				r.addHost(2, 400, 0)
				r.channel.Interceptor = func(f *Frame, _, _ geom.Point) bool { return f.Kind != "jam" }
				r.sendAt(0.001, 0, "jam", big)
				r.sendAt(0.002, 2, "b", big)
				return mid
			},
			want: want{collisions: 1, jammed: 1},
		},
		{
			// Host 1 sleeps at 5 ms, mid-way through host 0's frame, and
			// wakes at 10 ms while that frame is still on air. The aborted
			// reception is gone: host 2's frame, starting at 12 ms, finds
			// nothing in progress (no collision) and is delivered, and host
			// 0's frame, ending at 21 ms during it, neither delivers nor
			// disturbs it.
			name: "sleep and wake mid-frame",
			setup: func(t *testing.T, r *rig) *fakeHost {
				r.addHost(0, 0, 0)
				mid := r.addHost(1, 200, 0)
				r.addHost(2, 400, 0)
				r.sendAt(0.001, 0, "a", big)
				r.engine.Schedule(0.005, func() { r.channel.SetListening(1, false) })
				r.engine.Schedule(0.010, func() { r.channel.SetListening(1, true) })
				r.modeAt(t, 0.011, mid, energy.Idle)
				r.sendAt(0.012, 2, "b", big)
				r.modeAt(t, 0.015, mid, energy.Receive)
				r.modeAt(t, 0.025, mid, energy.Receive)
				return mid
			},
			want: want{deliveries: 1, atMid: 1},
		},
		{
			// Host 1 starts a frame at (0,0), heard by host 0 (delivery),
			// then moves to (900,0) while still transmitting. Host 2 at
			// (1000,0) is 1000 m from that frame's origin, so it senses an
			// idle medium and sends: host 1 is in its range but
			// transmitting, so that reception is corrupted (half-duplex,
			// not a collision). Host 3 at (700,100), hidden from host 2,
			// then overlaps it at host 1: +1 for its own reception only.
			name: "half-duplex",
			setup: func(t *testing.T, r *rig) *fakeHost {
				r.addHost(0, 100, 0)
				mid := r.addHost(1, 0, 0)
				r.addHost(2, 1000, 0)
				r.addHost(3, 700, 100)
				r.sendAt(0.001, 1, "a", big)
				r.engine.Schedule(0.002, func() { mid.pos.X = 900 })
				r.sendAt(0.003, 2, "b", big)
				r.sendAt(0.004, 3, "c", big)
				return mid
			},
			want: want{collisions: 1, deliveries: 1},
		},
	}
	for _, tc := range cases {
		for _, mode := range scanModes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				cfg := DefaultConfig()
				mode.cfg(&cfg)
				r := newRig(cfg)
				mid := tc.setup(t, r)
				r.engine.Run(1)
				ct := r.channel.Counters()
				got := want{ct.Collisions, ct.Jammed, ct.Deliveries, uint64(len(mid.received))}
				if got != tc.want {
					t.Fatalf("collisions, jammed, deliveries, at receiver = %+v, want %+v", got, tc.want)
				}
				for id, h := range r.hosts {
					if m := h.battery.Mode(); m != energy.Idle {
						t.Errorf("host %v ends in mode %v, want idle", id, m)
					}
				}
			})
		}
	}
}

// sendAt schedules a broadcast of the given kind and size from src.
func (r *rig) sendAt(at float64, src hostid.ID, kind string, bytes int) {
	r.engine.Schedule(at, func() {
		r.channel.Send(src, &Frame{Kind: kind, Dst: hostid.Broadcast, Bytes: bytes})
	})
}

// modeAt schedules a check of h's battery mode.
func (r *rig) modeAt(t *testing.T, at float64, h *fakeHost, want energy.Mode) {
	r.engine.Schedule(at, func() {
		if got := h.battery.Mode(); got != want {
			t.Errorf("host %v mode at %v s = %v, want %v", h.id, at, got, want)
		}
	})
}
