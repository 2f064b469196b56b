package radio

import (
	"slices"
	"testing"

	"ecgrid/internal/energy"
)

// refRx and refStation are the reception bookkeeping the station
// counters replaced: each station lists its in-progress receptions, an
// overlap marks every listed one corrupted, and an abort corrupts and
// unlists them all. FuzzReceptionBookkeeping holds the counters to it.
type refRx struct{ corrupted bool }

type refStation struct {
	receiving    []*refRx
	transmitting bool
}

func (s *refStation) begin(jammed, collide bool) (*refRx, uint64) {
	r := &refRx{corrupted: jammed}
	var n uint64
	if collide {
		if s.transmitting {
			r.corrupted = true
		}
		if len(s.receiving) > 0 {
			r.corrupted = true
			for _, o := range s.receiving {
				if !o.corrupted {
					o.corrupted = true
					n++
				}
			}
			n++
		}
	}
	s.receiving = append(s.receiving, r)
	return r, n
}

func (s *refStation) end(r *refRx) (live, corrupted bool) {
	j := slices.Index(s.receiving, r)
	if j < 0 {
		return false, false
	}
	s.receiving = slices.Delete(s.receiving, j, j+1)
	return true, r.corrupted
}

func (s *refStation) abort() {
	for _, r := range s.receiving {
		r.corrupted = true
	}
	s.receiving = nil
}

func (s *refStation) mode() energy.Mode {
	switch {
	case s.transmitting:
		return energy.Transmit
	case len(s.receiving) > 0:
		return energy.Receive
	default:
		return energy.Idle
	}
}

// FuzzReceptionBookkeeping drives two stations' reception counters
// through fuzzer-chosen admit, end and abort steps (admissions jammed or
// half-duplex at will, sharing one admission sequence as on a channel)
// beside the list-based reference, and requires the same end verdicts,
// the same collision count and the same energy mode at every step. Each
// op byte reads: bits 0-1 the step (0-1 admit, 2 end, 3 abort), bit 2 the
// station, bit 3 jam, bit 4 transmitting at admission, bits 5-7 which
// open reception an end closes.
func FuzzReceptionBookkeeping(f *testing.F) {
	f.Add(true, []byte{0x00, 0x01, 0x02, 0x02})                         // overlap, both end corrupted
	f.Add(true, []byte{0x08, 0x00, 0x22, 0x02})                         // jammed then overlapped
	f.Add(true, []byte{0x00, 0x03, 0x00, 0x02, 0x02})                   // abort mid-frame, then a clean one
	f.Add(true, []byte{0x10, 0x00, 0x01, 0x42, 0x22, 0x02})             // half-duplex, three overlapping
	f.Add(true, []byte{0x00, 0x04, 0x05, 0x02, 0x07, 0x00, 0x06, 0x02}) // two stations interleaved
	f.Add(false, []byte{0x00, 0x01, 0x08, 0x03, 0x02, 0x02, 0x02})      // collisions off
	f.Fuzz(func(t *testing.T, collide bool, ops []byte) {
		type open struct {
			st  int
			rx  reception
			ref *refRx
		}
		var (
			sts     [2]station
			refs    [2]refStation
			pending []open
			seq     uint64
			got     uint64 // collisions from the counters
			want    uint64 // collisions from the reference
		)
		busy := &transmission{}
		for i := range sts {
			sts[i].listening = true
		}
		end := func(step, k int) {
			o := pending[k]
			pending = slices.Delete(pending, k, k+1)
			live, corrupted := sts[o.st].endRx(&o.rx)
			rlive, rcorrupted := refs[o.st].end(o.ref)
			if live != rlive || corrupted != rcorrupted {
				t.Fatalf("step %d: end at station %d = (live %v, corrupted %v), reference (%v, %v)",
					step, o.st, live, corrupted, rlive, rcorrupted)
			}
		}
		for step, b := range ops {
			i := int(b>>2) & 1
			st, ref := &sts[i], &refs[i]
			switch b & 3 {
			case 0, 1:
				st.transmitting = nil
				if ref.transmitting = b&0x10 != 0; ref.transmitting {
					st.transmitting = busy
				}
				seq++
				rx, n := st.beginRx(seq, b&0x08 != 0, collide)
				r, rn := ref.begin(b&0x08 != 0, collide)
				got += n
				want += rn
				pending = append(pending, open{i, rx, r})
			case 2:
				if len(pending) > 0 {
					end(step, int(b>>5)%len(pending))
				}
			case 3:
				st.abortRx()
				ref.abort()
			}
			if got != want {
				t.Fatalf("step %d: collisions %d, reference %d", step, got, want)
			}
			for j := range sts {
				if m, rm := sts[j].mode(), refs[j].mode(); m != rm {
					t.Fatalf("step %d: station %d mode %v, reference %v", step, j, m, rm)
				}
			}
		}
		for len(pending) > 0 {
			end(len(ops), 0)
		}
		for j := range sts {
			if sts[j].rxN != 0 || sts[j].rxClean != 0 {
				t.Fatalf("station %d drained with rxN %d, rxClean %d", j, sts[j].rxN, sts[j].rxClean)
			}
		}
	})
}
