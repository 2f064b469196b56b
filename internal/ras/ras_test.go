package ras

import (
	"slices"
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/sim"
)

type fakeSwitch struct {
	pos    geom.Point
	asleep bool
	wakes  []WakeReason
}

func (f *fakeSwitch) register(b *Bus, id hostid.ID) {
	b.Attach(id, &Switch{
		Position: func() geom.Point { return f.pos },
		Asleep:   func() bool { return f.asleep },
		Wake: func(r WakeReason) {
			f.asleep = false
			f.wakes = append(f.wakes, r)
		},
	})
}

// population is the reference candidate source: every attached switch,
// ascending — the full sweep an indexed grid page must reproduce.
type population struct{ b *Bus }

func (s *population) NearIDs(_ geom.Point, _ float64, dst []hostid.ID) []hostid.ID {
	start := len(dst)
	for id := range s.b.switches {
		dst = append(dst, id)
	}
	slices.Sort(dst[start:])
	return dst
}

func newBus(e *sim.Engine) *Bus { return newBusRange(e, 250) }

func newBusRange(e *sim.Engine, rangeM float64) *Bus {
	p := grid.NewPartition(geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000}), 100)
	src := &population{}
	src.b = NewBus(e, p, src, rangeM, DefaultLatency)
	return src.b
}

func TestPageWakesSleepingHost(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	f := &fakeSwitch{pos: geom.Point{X: 100, Y: 100}, asleep: true}
	f.register(b, 1)
	b.Page(geom.Point{X: 50, Y: 50}, 1)
	e.Run(1)
	if len(f.wakes) != 1 || f.wakes[0] != PagedDirectly {
		t.Fatalf("wakes = %v, want [paged-directly]", f.wakes)
	}
	if f.asleep {
		t.Fatal("host still asleep after page")
	}
	if b.PagesSent != 1 {
		t.Fatalf("PagesSent = %d", b.PagesSent)
	}
}

func TestPageHasLatency(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	f := &fakeSwitch{pos: geom.Point{X: 100, Y: 100}, asleep: true}
	f.register(b, 1)
	b.Page(geom.Point{X: 50, Y: 50}, 1)
	e.Run(DefaultLatency / 2)
	if len(f.wakes) != 0 {
		t.Fatal("wake delivered before paging latency elapsed")
	}
	e.Run(1)
	if len(f.wakes) != 1 {
		t.Fatal("wake not delivered after latency")
	}
}

func TestPageOutOfRangeIgnored(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	f := &fakeSwitch{pos: geom.Point{X: 900, Y: 900}, asleep: true}
	f.register(b, 1)
	b.Page(geom.Point{X: 0, Y: 0}, 1)
	e.Run(1)
	if len(f.wakes) != 0 {
		t.Fatal("out-of-range page delivered")
	}
}

func TestPageAwakeHostNoOp(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	f := &fakeSwitch{pos: geom.Point{X: 100, Y: 100}, asleep: false}
	f.register(b, 1)
	b.Page(geom.Point{X: 50, Y: 50}, 1)
	e.Run(1)
	if len(f.wakes) != 0 {
		t.Fatal("awake host was woken")
	}
}

func TestPageUnknownHostNoOp(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	b.Page(geom.Point{}, 42)
	e.Run(1) // must not panic
}

func TestPageGridWakesOnlyHostsInCell(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	inCell := &fakeSwitch{pos: geom.Point{X: 150, Y: 150}, asleep: true}  // cell (1,1)
	alsoIn := &fakeSwitch{pos: geom.Point{X: 199, Y: 101}, asleep: true}  // cell (1,1)
	outside := &fakeSwitch{pos: geom.Point{X: 250, Y: 150}, asleep: true} // cell (2,1)
	awake := &fakeSwitch{pos: geom.Point{X: 120, Y: 120}, asleep: false}  // cell (1,1), awake
	inCell.register(b, 1)
	alsoIn.register(b, 2)
	outside.register(b, 3)
	awake.register(b, 4)
	b.PageGrid(geom.Point{X: 150, Y: 150}, grid.Coord{X: 1, Y: 1})
	e.Run(1)
	if len(inCell.wakes) != 1 || inCell.wakes[0] != PagedGrid {
		t.Fatalf("in-cell host wakes = %v", inCell.wakes)
	}
	if len(alsoIn.wakes) != 1 {
		t.Fatal("second in-cell host not woken")
	}
	if len(outside.wakes) != 0 {
		t.Fatal("host outside cell was woken")
	}
	if len(awake.wakes) != 0 {
		t.Fatal("awake host was woken")
	}
	if b.GridPagesSent != 1 {
		t.Fatalf("GridPagesSent = %d", b.GridPagesSent)
	}
}

func TestPageGridRespectsRange(t *testing.T) {
	e := sim.NewEngine()
	// Tiny range: the in-cell host is too far from the pager.
	b := newBusRange(e, 10)
	f := &fakeSwitch{pos: geom.Point{X: 199, Y: 199}, asleep: true}
	f.register(b, 1)
	b.PageGrid(geom.Point{X: 101, Y: 101}, grid.Coord{X: 1, Y: 1})
	e.Run(1)
	if len(f.wakes) != 0 {
		t.Fatal("page delivered beyond paging range")
	}
}

func TestDetachStopsPaging(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	f := &fakeSwitch{pos: geom.Point{X: 100, Y: 100}, asleep: true}
	f.register(b, 1)
	b.Detach(1)
	b.Page(geom.Point{X: 50, Y: 50}, 1)
	e.Run(1)
	if len(f.wakes) != 0 {
		t.Fatal("detached host was paged")
	}
}

func TestMovedHostPagedAtCurrentPosition(t *testing.T) {
	// Position is evaluated at delivery time: a host that moved out of
	// range between page and delivery is missed.
	e := sim.NewEngine()
	b := newBus(e)
	f := &fakeSwitch{pos: geom.Point{X: 100, Y: 100}, asleep: true}
	f.register(b, 1)
	b.Page(geom.Point{X: 50, Y: 50}, 1)
	e.Schedule(DefaultLatency/2, func() { f.pos = geom.Point{X: 900, Y: 900} })
	e.Run(1)
	if len(f.wakes) != 0 {
		t.Fatal("host paged at stale position")
	}
}

func TestAttachValidation(t *testing.T) {
	e := sim.NewEngine()
	b := newBus(e)
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete switch registration did not panic")
		}
	}()
	b.Attach(1, &Switch{})
}

func TestNewBusValidation(t *testing.T) {
	e := sim.NewEngine()
	p := grid.NewPartition(geom.NewRect(geom.Point{}, geom.Point{X: 100, Y: 100}), 10)
	for name, build := range map[string]func(){
		"zero range": func() { NewBus(e, p, &population{}, 0, 0.001) },
		"nil source": func() { NewBus(e, p, nil, 250, 0.001) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBus with %s did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestWakeReasonString(t *testing.T) {
	if PagedDirectly.String() != "paged-directly" || PagedGrid.String() != "paged-grid" {
		t.Error("wake reason names wrong")
	}
	if WakeReason(7).String() != "WakeReason(7)" {
		t.Error("unknown wake reason string wrong")
	}
}
