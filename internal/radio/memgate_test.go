package radio

import (
	"reflect"
	"testing"

	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

// TestReceptionPoolBounded is a memory gate on the reception-buffer
// pool. Nothing points into a buffer, so any pooled buffer serves any
// transmission: after a dense run, the buffers the channel owns (pooled,
// plus those still on the air) never outnumber the transmissions that
// were ever in flight at once. Hosts sit in clusters of uneven density,
// so receiver counts per frame vary widely.
func TestReceptionPoolBounded(t *testing.T) {
	for _, mode := range scanModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig()
			mode.cfg(&cfg)
			r := newPacerRig(cfg)
			rng := sim.NewRNG(7)
			const n = 400
			for i := range n {
				// A uniform draw below a uniform draw skews the cluster
				// index low: cluster 0 is a crowd, cluster 7 a handful.
				k := rng.Intn(sim.StreamPlacement, 8)
				k = rng.Intn(sim.StreamPlacement, k+1)
				cx, cy := float64(k%4)*600, float64(k/4)*600
				r.addPacer(hostid.ID(i),
					cx+rng.Uniform(sim.StreamPlacement, 0, 300), cy+rng.Uniform(sim.StreamPlacement, 0, 300),
					rng.Uniform(sim.StreamPlacement, -10, 10), rng.Uniform(sim.StreamPlacement, -10, 10))
			}
			for i := range n {
				for k := range 4 {
					r.sendAt(float64(k)+rng.Uniform(sim.StreamPlacement, 0, 1), hostid.ID(i))
				}
			}
			peak := 0
			r.channel.Sniffer = func(*Frame, float64) { peak = max(peak, len(r.channel.liveTx)) }
			r.engine.Run(5)
			if r.channel.Counters().FramesSent < 4*n {
				t.Fatalf("sent %d frames, want %d", r.channel.Counters().FramesSent, 4*n)
			}
			if held := len(r.channel.rxFree) + len(r.channel.liveTx); held > peak {
				t.Fatalf("channel holds %d reception buffers, peak in flight was %d", held, peak)
			}
		})
	}
}

// hasPointers reports whether a value of type typ holds any pointer the
// GC would scan.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	default:
		return false
	}
}
