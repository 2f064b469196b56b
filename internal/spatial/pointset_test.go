package spatial

import (
	"encoding/binary"
	"testing"

	"ecgrid/internal/geom"
)

// FuzzPointSet replays an arbitrary Add/Remove/AnyWithin sequence and
// checks every probe against a linear scan over all stored points. Each
// operation is five bytes: an opcode byte and two little-endian int16
// coordinates in sixteenths of a meter, so points land on both sides of the
// origin, exactly on cell lines, and far enough apart to grow the box in
// every direction.
func FuzzPointSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{
		0, 0x20, 0x03, 0x20, 0x03, // add (50, 50): a cell corner
		3, 0xe0, 0xfc, 0xe0, 0xfc, // add (-50, -50)
		6, 0x00, 0x80, 0xff, 0x7f, // add (-2048, 2047.9375): far growth
		254, 0x00, 0x00, 0x00, 0x00, // probe the origin, wide radius
		2, 0x20, 0x03, 0x20, 0x03, // probe a stored point, radius 0
		4, 0, 0, 0, 0, // remove one
		251, 0x70, 0xfe, 0x90, 0x01, // probe (-25, 25)
	})
	// Two random sequences: one spread over ±1875 m (growth in every
	// direction), one within ±150 m, dense enough that probes keep
	// landing near stored points and the box edges.
	rng := &lcg{s: 11}
	for _, spread := range []float64{30000, 2400} {
		var seq []byte
		for range 400 {
			op := byte(rng.next() * 256)
			x := uint16(int16((rng.next()*2 - 1) * spread))
			y := uint16(int16((rng.next()*2 - 1) * spread))
			seq = append(seq, op, byte(x), byte(x>>8), byte(y), byte(y>>8))
		}
		f.Add(seq)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		type stored struct {
			id uint64
			at geom.Point
		}
		ps := NewPointSet(50)
		var live []stored
		var nextID uint64
		for ; len(ops) >= 5; ops = ops[5:] {
			op := ops[0]
			p := geom.Point{
				X: float64(int16(binary.LittleEndian.Uint16(ops[1:]))) / 16,
				Y: float64(int16(binary.LittleEndian.Uint16(ops[3:]))) / 16,
			}
			switch op % 3 {
			case 0:
				nextID++
				ps.Add(nextID, p)
				live = append(live, stored{nextID, p})
			case 1:
				if len(live) == 0 {
					continue
				}
				i := int(op/3) % len(live)
				ps.Remove(live[i].id, live[i].at)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2:
				radius := float64(op/3) * 2.5
				want := false
				for _, s := range live {
					if s.at.Dist2(p) <= radius*radius {
						want = true
						break
					}
				}
				if got := ps.AnyWithin(p, radius); got != want {
					t.Fatalf("AnyWithin(%v, %v) = %v, linear scan says %v (%d points)", p, radius, got, want, len(live))
				}
			}
			if ps.Len() != len(live) {
				t.Fatalf("Len = %d, want %d", ps.Len(), len(live))
			}
		}
		// A point never added must not be removable, whether its cell
		// lies inside the grown box or far outside it.
		for _, at := range []geom.Point{{}, {X: -1e6, Y: 1e6}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Remove of never-added point at %v did not panic", at)
					}
				}()
				ps.Remove(nextID+1, at)
			}()
		}
	})
}
