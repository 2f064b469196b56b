package node

import (
	"math"
	"testing"
	"unsafe"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/mobility"
	"ecgrid/internal/radio"
	"ecgrid/internal/ras"
	"ecgrid/internal/sim"
)

// hiddenBound wraps a model but reports no speed bound (+Inf), so the
// host must never keep a Cell memo.
type hiddenBound struct{ mobility.Model }

func (hiddenBound) MaxSpeedMS() float64 { return math.Inf(1) }

// cellModel builds mobility model kind (taken modulo the kind count)
// over area, starting at start, drawing from rng. The kinds cover
// every model the generator and the paper use, a stationary host, a
// scripted path that leaves the area (edge cells own the clamped
// positions beyond the border) and a waypoint host with its speed bound
// hidden.
func cellModel(kind int, area geom.Rect, start geom.Point, rng *sim.RNG) (string, mobility.Model) {
	s := func(name string) *randStream { return &randStream{rng: rng, name: name} }
	switch kind % 8 {
	case 0:
		return "waypoint", mobility.NewRandomWaypoint(area, start, 20, 1, s("wp"))
	case 1:
		// Streets every 100 m: on the cell lines of a 100 m grid.
		return "manhattan", mobility.NewManhattan(area, start, 100, 15, 0.5, s("mh"))
	case 2:
		return "direction", mobility.NewRandomDirection(area, start, 12, 20, 1, s("rd"))
	case 3:
		ref := mobility.NewGroupReference(area, start, 40, 10, 1, s("ref"))
		return "group", mobility.NewGroupMember(ref, 40, 4, 0.5, s("member"))
	case 4:
		return "stationary", mobility.Stationary{At: start}
	case 5:
		// Stationary on a cell line: no margin, so no memo.
		return "stationary-on-line", mobility.Stationary{At: geom.Point{X: 100, Y: start.Y}}
	case 6:
		// Out across the west border and back, then out across the
		// north-east corner.
		c := area.Max
		return "scripted-beyond-border", mobility.NewScriptedPath(
			[]float64{0, 20, 40, 70, 100},
			[]geom.Point{start, {X: area.Min.X - 80, Y: start.Y}, start, {X: c.X + 60, Y: c.Y + 30}, {X: c.X - 10, Y: c.Y - 150}},
		)
	default:
		return "unbounded", hiddenBound{mobility.NewRandomWaypoint(area, start, 20, 1, s("wp"))}
	}
}

// randStream adapts one named sim.RNG stream to the models' Float64
// source.
type randStream struct {
	rng  *sim.RNG
	name string
}

func (r *randStream) Float64() float64 { return r.rng.Uniform(r.name, 0, 1) }

// cellMemoRun drives one host over mob on part for steps instants whose
// gaps mix sub-millisecond, sub-second and multi-second steps, toggling
// GPS noise (±60 m, resampled every second) on and off at random, and
// fails t wherever Cell() disagrees with CellOf(GPS()). It returns how
// many probes a live memo answered.
func cellMemoRun(t testing.TB, part *grid.Partition, mob mobility.Model, rng *sim.RNG, steps int, noise bool) (hits int) {
	e := sim.NewEngine()
	cfg := radio.DefaultConfig()
	ch := radio.NewChannel(e, rng, cfg)
	h := New(Config{
		ID: 1, Engine: e, RNG: rng, Channel: ch,
		Bus:       ras.NewBus(e, part, ch, cfg.Range, ras.DefaultLatency),
		Partition: part, Mobility: mob, Battery: energy.NewInfiniteBattery(energy.PaperModel()),
	})
	h.SetProtocol(&recorder{})
	h.Start()
	gps := func(now float64) (dx, dy float64) {
		epoch := math.Floor(now)
		return 60 * math.Sin(epoch*12.9898), 60 * math.Cos(epoch*78.233)
	}
	now := 0.0
	for i := 0; i < steps; i++ {
		switch g := rng.Uniform("gap", 0, 1); {
		case g < 0.4:
			now += rng.Uniform("gap", 0, 1e-3)
		case g < 0.8:
			now += rng.Uniform("gap", 0, 1)
		default:
			now += rng.Uniform("gap", 0, 20)
		}
		toggle := noise && rng.Uniform("noise", 0, 1) < 0.1
		twice := rng.Uniform("twice", 0, 1) < 0.2
		e.At(now, func() {
			if toggle {
				if h.gpsNoise == nil {
					h.SetGPSNoise(gps)
				} else {
					h.SetGPSNoise(nil)
				}
			}
			for k := 0; k <= btoi(twice); k++ {
				if h.gpsNoise == nil && e.Now() < h.cellUntil {
					hits++
				}
				got := h.Cell()
				if want := part.CellOf(h.GPS()); got != want {
					t.Fatalf("t=%v: Cell() = %v, CellOf(GPS()) = %v (position %v, noise %v)",
						e.Now(), got, want, h.Position(), h.gpsNoise != nil)
				}
			}
		})
	}
	e.Run(now + 1)
	return hits
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCellMemoMatchesGPS is the Cell memo's property test: at thousands
// of instants, Cell() equals CellOf(GPS()) for every model kind, on a
// 5×5 partition (mostly edge cells) and on a 4.5×4.5 one whose last
// row and column are partial, with GPS noise switched on and off
// mid-run. Every speed-bounded model that moves off cell lines must
// answer some probes from the memo, or the test would prove nothing
// about it; the stationary host on a cell line and the host without a
// speed bound must answer none.
func TestCellMemoMatchesGPS(t *testing.T) {
	for _, side := range []float64{500, 450} {
		area := geom.NewRect(geom.Point{}, geom.Point{X: side, Y: side})
		part := grid.NewPartition(area, 100)
		for kind := 0; kind < 8; kind++ {
			for _, noise := range []bool{false, true} {
				rng := sim.NewRNG(int64(100*kind) + int64(side))
				start := geom.Point{X: rng.Uniform("start", 0, side), Y: rng.Uniform("start", 0, side)}
				name, mob := cellModel(kind, area, start, rng)
				hits := cellMemoRun(t, part, mob, rng, 2000, noise)
				switch name {
				case "stationary-on-line", "unbounded":
					if hits != 0 {
						t.Errorf("%s (side %v, noise %v): %d probes answered from a memo, want 0", name, side, noise, hits)
					}
				default:
					if hits == 0 {
						t.Errorf("%s (side %v, noise %v): no probe answered from the memo", name, side, noise)
					}
				}
			}
		}
	}
}

// TestCellMemoOneCell: a 1×1 partition has no side to leave, so the
// margin is +Inf and a moving host keeps its first memo for good.
func TestCellMemoOneCell(t *testing.T) {
	part := grid.NewPartition(geom.NewRect(geom.Point{}, geom.Point{X: 100, Y: 100}), 100)
	rng := sim.NewRNG(5)
	mob := mobility.NewRandomWaypoint(part.Area(), geom.Point{X: 30, Y: 70}, 20, 1, &randStream{rng: rng, name: "wp"})
	if hits := cellMemoRun(t, part, mob, rng, 500, false); hits < 400 {
		t.Errorf("one-cell partition answered %d of 500+ probes from the memo, want nearly all", hits)
	}
}

// TestHostCellMemoSize: the memo adds vmax, cell and cellUntil, 32 bytes
// per host.
func TestHostCellMemoSize(t *testing.T) {
	var h Host
	if got := unsafe.Sizeof(h.vmax) + unsafe.Sizeof(h.cell) + unsafe.Sizeof(h.cellUntil); got != 32 {
		t.Errorf("Cell memo takes %d bytes per host, want 32", got)
	}
}

// FuzzHostCell fuzzes the Cell memo against CellOf(GPS()): the model
// kind, the partition (1 to 8 cells a side, the last row and column
// partial by up to 99 m), the start, the probe instants and the GPS
// noise toggles all come from the inputs.
func FuzzHostCell(f *testing.F) {
	for kind := uint8(0); kind < 8; kind++ {
		f.Add(int64(kind)+1, kind, uint8(5), uint8(0), true)
	}
	f.Add(int64(9), uint8(0), uint8(1), uint8(0), false)
	f.Add(int64(10), uint8(1), uint8(8), uint8(50), true)
	f.Fuzz(func(t *testing.T, seed int64, kind, cells, trim uint8, noise bool) {
		n := 1 + int(cells)%8
		side := float64(100*n) - float64(trim%100)
		if side < 100 {
			side = 100
		}
		area := geom.NewRect(geom.Point{}, geom.Point{X: side, Y: side})
		k := int(kind) % 8
		rng := sim.NewRNG(seed)
		start := geom.Point{X: rng.Uniform("start", 0, side), Y: rng.Uniform("start", 0, side)}
		_, mob := cellModel(k, area, start, rng)
		cellMemoRun(t, grid.NewPartition(area, 100), mob, rng, 300, noise)
	})
}
