package node

import (
	"math"
	"testing"

	"ecgrid/internal/energy"
	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
	"ecgrid/internal/hostid"
	"ecgrid/internal/mobility"
	"ecgrid/internal/radio"
	"ecgrid/internal/ras"
	"ecgrid/internal/sim"
)

// recorder is a Protocol that records every callback.
type recorder struct {
	started     bool
	received    []*radio.Frame
	wakes       []WakeCause
	cellChanges []grid.Coord
	stopped     bool
}

func (r *recorder) Start()                      { r.started = true }
func (r *recorder) Receive(f *radio.Frame)      { r.received = append(r.received, f) }
func (r *recorder) Woken(c WakeCause)           { r.wakes = append(r.wakes, c) }
func (r *recorder) CellChanged(_, c grid.Coord) { r.cellChanges = append(r.cellChanges, c) }
func (r *recorder) Stopped()                    { r.stopped = true }
func (r *recorder) TxFailed(*radio.Frame)       {}

type world struct {
	engine    *sim.Engine
	rng       *sim.RNG
	channel   *radio.Channel
	bus       *ras.Bus
	partition *grid.Partition
}

func newWorld() *world {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	p := grid.NewPartition(geom.NewRect(geom.Point{}, geom.Point{X: 1000, Y: 1000}), 100)
	cfg := radio.DefaultConfig()
	ch := radio.NewChannel(e, rng, cfg)
	return &world{
		engine:    e,
		rng:       rng,
		channel:   ch,
		bus:       ras.NewBus(e, p, ch, cfg.Range, ras.DefaultLatency),
		partition: p,
	}
}

func (w *world) host(id hostid.ID, mob mobility.Model, joules float64) (*Host, *recorder) {
	var b *energy.Battery
	if math.IsInf(joules, 1) {
		b = energy.NewInfiniteBattery(energy.PaperModel())
	} else {
		b = energy.NewBattery(energy.PaperModel(), joules)
	}
	h := New(Config{
		ID: id, Engine: w.engine, RNG: w.rng, Channel: w.channel,
		Bus: w.bus, Partition: w.partition, Mobility: mob, Battery: b,
	})
	rec := &recorder{}
	h.SetProtocol(rec)
	h.Start()
	return h, rec
}

func at(x, y float64) mobility.Model { return mobility.Stationary{At: geom.Point{X: x, Y: y}} }

func TestHostStartRunsProtocol(t *testing.T) {
	w := newWorld()
	_, rec := w.host(1, at(150, 150), 500)
	if !rec.started {
		t.Fatal("protocol not started")
	}
}

func TestHostSensors(t *testing.T) {
	w := newWorld()
	h, _ := w.host(1, at(150, 170), 500)
	if h.ID() != 1 {
		t.Fatalf("ID = %v", h.ID())
	}
	if h.Cell() != (grid.Coord{X: 1, Y: 1}) {
		t.Fatalf("Cell = %v", h.Cell())
	}
	// Cell center is (150,150); host is 20 m north of it.
	if d := h.DistToCellCenter(); math.Abs(d-20) > 1e-9 {
		t.Fatalf("DistToCellCenter = %v, want 20", d)
	}
	if h.Level() != energy.Upper {
		t.Fatalf("Level = %v", h.Level())
	}
	if h.Partition() != w.partition {
		t.Fatal("Partition accessor wrong")
	}
}

func TestHostSendReceive(t *testing.T) {
	w := newWorld()
	a, _ := w.host(1, at(100, 100), 500)
	_, recB := w.host(2, at(150, 150), 500)
	w.engine.Schedule(0.001, func() {
		a.Send(&radio.Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	w.engine.Run(1)
	if len(recB.received) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(recB.received))
	}
}

func TestSleepStopsReceptionAndSavesEnergy(t *testing.T) {
	w := newWorld()
	a, _ := w.host(1, at(100, 100), 500)
	b, recB := w.host(2, at(150, 150), 500)
	b.Sleep()
	if !b.Asleep() {
		t.Fatal("not asleep after Sleep")
	}
	w.engine.Schedule(0.001, func() {
		a.Send(&radio.Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	w.engine.Run(100)
	if len(recB.received) != 0 {
		t.Fatal("sleeping host received a frame")
	}
	// Sleeping battery drains at 0.163 W; an idle host would have spent
	// 0.863 W.
	consumed := b.Battery().Consumed(100)
	if consumed > 0.163*100+0.5 {
		t.Fatalf("sleeping host consumed %v J over 100 s, want ≈16.3", consumed)
	}
}

func TestWakeByTimer(t *testing.T) {
	w := newWorld()
	h, rec := w.host(1, at(100, 100), 500)
	h.Sleep()
	w.engine.Schedule(10, h.WakeByTimer)
	w.engine.Run(20)
	if h.Asleep() {
		t.Fatal("still asleep after WakeByTimer")
	}
	if len(rec.wakes) != 1 || rec.wakes[0] != WakeSelf {
		t.Fatalf("wakes = %v, want [self-timer]", rec.wakes)
	}
	if h.Sleeps != 1 || h.Wakes != 1 {
		t.Fatalf("Sleeps,Wakes = %d,%d", h.Sleeps, h.Wakes)
	}
}

func TestWakeByPage(t *testing.T) {
	w := newWorld()
	gw, _ := w.host(1, at(100, 100), 500)
	b, recB := w.host(2, at(150, 150), 500)
	b.Sleep()
	w.engine.Schedule(1, func() { gw.Page(2) })
	w.engine.Run(5)
	if b.Asleep() {
		t.Fatal("still asleep after page")
	}
	if len(recB.wakes) != 1 || recB.wakes[0] != WakePage {
		t.Fatalf("wakes = %v, want [paged]", recB.wakes)
	}
}

func TestWakeByGridPage(t *testing.T) {
	w := newWorld()
	gw, _ := w.host(1, at(120, 120), 500)
	b, recB := w.host(2, at(150, 150), 500)
	other, recOther := w.host(3, at(250, 150), 500) // different cell
	b.Sleep()
	other.Sleep()
	w.engine.Schedule(1, func() { gw.PageGrid(grid.Coord{X: 1, Y: 1}) })
	w.engine.Run(5)
	if len(recB.wakes) != 1 || recB.wakes[0] != WakeGridPage {
		t.Fatalf("in-grid wakes = %v, want [grid-paged]", recB.wakes)
	}
	if len(recOther.wakes) != 0 {
		t.Fatal("host in another grid was grid-paged")
	}
}

func TestDoubleSleepAndWakeAreIdempotent(t *testing.T) {
	w := newWorld()
	h, rec := w.host(1, at(100, 100), 500)
	h.Sleep()
	h.Sleep()
	if h.Sleeps != 1 {
		t.Fatalf("Sleeps = %d after double Sleep", h.Sleeps)
	}
	h.WakeByTimer()
	h.WakeByTimer()
	if h.Wakes != 1 || len(rec.wakes) != 1 {
		t.Fatalf("Wakes = %d, protocol wakes = %d", h.Wakes, len(rec.wakes))
	}
}

func TestHostDiesWhenBatteryEmpties(t *testing.T) {
	w := newWorld()
	var diedAt float64 = -1
	h, rec := w.host(1, at(100, 100), 10) // 10 J idle ≈ 11.6 s
	h.Died = func(id hostid.ID, atT float64) { diedAt = atT }
	w.engine.Run(60)
	if !h.Dead() {
		t.Fatal("host alive after battery exhaustion")
	}
	if !rec.stopped {
		t.Fatal("protocol not stopped on death")
	}
	want := 10 / 0.863
	if math.Abs(diedAt-want) > deathCheckPeriod+0.1 {
		t.Fatalf("died at %v, want ≈%v", diedAt, want)
	}
}

func TestDeadHostIsDetached(t *testing.T) {
	w := newWorld()
	a, _ := w.host(1, at(100, 100), 500)
	b, recB := w.host(2, at(150, 150), 5) // dies in ≈5.8 s
	_ = b
	w.engine.Run(30)
	w.engine.Schedule(0.001, func() {
		a.Send(&radio.Frame{Kind: "hello", Dst: hostid.Broadcast, Bytes: 64})
	})
	w.engine.Run(31)
	if len(recB.received) != 0 {
		t.Fatal("dead host received a frame")
	}
	// Sending from a dead host is silently dropped (it can't transmit).
	b.Send(&radio.Frame{Kind: "x", Dst: hostid.Broadcast, Bytes: 10})
}

func TestInfiniteBatteryHostNeverDies(t *testing.T) {
	w := newWorld()
	h, rec := w.host(1, at(100, 100), math.Inf(1))
	w.engine.Run(5000)
	if h.Dead() || rec.stopped {
		t.Fatal("infinite-energy host died")
	}
}

func TestCellChangeCallbackWhileAwake(t *testing.T) {
	w := newWorld()
	// Move east at 10 m/s from x=150: crosses x=200 after 5 s.
	mob := constVelModel{from: geom.Point{X: 150, Y: 150}, v: geom.Vector{DX: 10}}
	_, rec := w.host(1, mob, 500)
	w.engine.Run(6)
	if len(rec.cellChanges) != 1 || rec.cellChanges[0] != (grid.Coord{X: 2, Y: 1}) {
		t.Fatalf("cellChanges = %v, want [(2, 1)]", rec.cellChanges)
	}
	w.engine.Run(16)
	if len(rec.cellChanges) != 2 || rec.cellChanges[1] != (grid.Coord{X: 3, Y: 1}) {
		t.Fatalf("cellChanges = %v, want second (3, 1)", rec.cellChanges)
	}
}

func TestNoCellChangeCallbackWhileAsleep(t *testing.T) {
	w := newWorld()
	mob := constVelModel{from: geom.Point{X: 150, Y: 150}, v: geom.Vector{DX: 10}}
	h, rec := w.host(1, mob, 500)
	h.Sleep()
	w.engine.Run(30) // crosses three boundaries while asleep
	if len(rec.cellChanges) != 0 {
		t.Fatalf("sleeping host got cell changes: %v", rec.cellChanges)
	}
	h.WakeByTimer()
	// After waking at t=30 (x=450, cell 4), tracking resumes from the
	// current cell: crossings at x=500 (t=35) and x=600 (t=45).
	w.engine.Run(46)
	want := []grid.Coord{{X: 5, Y: 1}, {X: 6, Y: 1}}
	if len(rec.cellChanges) != 2 || rec.cellChanges[0] != want[0] || rec.cellChanges[1] != want[1] {
		t.Fatalf("cellChanges after wake = %v, want %v", rec.cellChanges, want)
	}
}

func TestEstimateDwellDelegates(t *testing.T) {
	w := newWorld()
	mob := constVelModel{from: geom.Point{X: 150, Y: 150}, v: geom.Vector{DX: 10}}
	h, _ := w.host(1, mob, 500)
	if got := h.EstimateDwell(1000); math.Abs(got-5) > 1e-9 {
		t.Fatalf("EstimateDwell = %v, want 5", got)
	}
}

func TestSendWhileAsleepPanics(t *testing.T) {
	w := newWorld()
	h, _ := w.host(1, at(100, 100), 500)
	h.Sleep()
	defer func() {
		if recover() == nil {
			t.Fatal("Send while asleep did not panic")
		}
	}()
	h.Send(&radio.Frame{Kind: "x", Dst: hostid.Broadcast, Bytes: 10})
}

func TestStartWithoutProtocolPanics(t *testing.T) {
	w := newWorld()
	h := New(Config{
		ID: 9, Engine: w.engine, RNG: w.rng, Channel: w.channel,
		Bus: w.bus, Partition: w.partition, Mobility: at(1, 1),
		Battery: energy.NewBattery(energy.PaperModel(), 500),
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Start without protocol did not panic")
		}
	}()
	h.Start()
}

func TestIncompleteConfigPanics(t *testing.T) {
	w := newWorld()
	noBus := Config{
		ID: 9, Engine: w.engine, RNG: w.rng, Channel: w.channel,
		Partition: w.partition, Mobility: at(1, 1),
		Battery: energy.NewBattery(energy.PaperModel(), 500),
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"nil engine", Config{}}, {"nil bus", noBus}} {
		func() {
			defer func() {
				if r := recover(); r != "node: incomplete config" {
					t.Errorf("New with %s: recovered %v, want the incomplete-config panic", c.name, r)
				}
			}()
			New(c.cfg)
		}()
	}
}

func TestWakeCauseString(t *testing.T) {
	if WakeSelf.String() != "self-timer" || WakePage.String() != "paged" || WakeGridPage.String() != "grid-paged" {
		t.Error("wake cause names wrong")
	}
	if WakeCause(9).String() != "WakeCause(9)" {
		t.Error("unknown wake cause string wrong")
	}
}

// constVelModel moves forever in a straight line.
type constVelModel struct {
	from geom.Point
	v    geom.Vector
}

func (m constVelModel) Position(t float64) geom.Point  { return m.from.Add(m.v.Scale(t)) }
func (m constVelModel) Velocity(t float64) geom.Vector { return m.v }
func (m constVelModel) NextTurn(float64) float64       { return math.Inf(1) }
func (m constVelModel) MaxSpeedMS() float64            { return m.v.Len() }

func TestPageDuringGraceWindowIsNoOp(t *testing.T) {
	// A page that arrives while the host is still awake (e.g. in a
	// protocol's sleep-grace window) must not wake anything or break
	// later sleeps.
	w := newWorld()
	gw, _ := w.host(1, at(100, 100), 500)
	b, recB := w.host(2, at(150, 150), 500)
	w.engine.Schedule(1, func() { gw.Page(2) }) // b is awake
	w.engine.Run(2)
	if len(recB.wakes) != 0 {
		t.Fatal("awake host got a wake callback")
	}
	b.Sleep()
	w.engine.Schedule(0.1, func() { gw.Page(2) })
	w.engine.Run(5)
	if len(recB.wakes) != 1 {
		t.Fatal("later page did not wake the sleeping host")
	}
}

func TestSleepAbortsOngoingReception(t *testing.T) {
	w := newWorld()
	a, _ := w.host(1, at(100, 100), 500)
	b, recB := w.host(2, at(150, 150), 500)
	// Long frame: 20 ms airtime; b sleeps mid-reception.
	w.engine.Schedule(0.001, func() {
		a.Send(&radio.Frame{Kind: "big", Dst: hostid.Broadcast, Bytes: 5000})
	})
	w.engine.Schedule(0.010, func() { b.Sleep() })
	w.engine.Run(1)
	if len(recB.received) != 0 {
		t.Fatal("frame delivered despite mid-reception sleep")
	}
}

func TestDistToCellCenterChangesWithMovement(t *testing.T) {
	w := newWorld()
	mob := constVelModel{from: geom.Point{X: 150, Y: 150}, v: geom.Vector{DX: 10}}
	h, _ := w.host(1, mob, 500)
	d0 := h.DistToCellCenter()
	w.engine.Run(3) // x=180: 30 m from center
	d1 := h.DistToCellCenter()
	if !(d0 == 0 && math.Abs(d1-30) < 1e-9) {
		t.Fatalf("DistToCellCenter: %v then %v", d0, d1)
	}
}

func TestHostLevelDropsWithConsumption(t *testing.T) {
	w := newWorld()
	h, _ := w.host(1, at(100, 100), 500)
	if h.Level() != energy.Upper {
		t.Fatal("fresh host not upper")
	}
	w.engine.Run(300) // idle ≈0.863 W → 259 J consumed → 48 %
	if h.Level() != energy.Boundary {
		t.Fatalf("Level after 300 s = %v", h.Level())
	}
}

func TestHostAccessors(t *testing.T) {
	w := newWorld()
	h, _ := w.host(1, at(100, 100), 500)
	if h.Engine() != w.engine || h.RNG() != w.rng {
		t.Fatal("Engine/RNG accessors wrong")
	}
	w.engine.Run(3)
	if h.Now() != 3 {
		t.Fatalf("Now = %v", h.Now())
	}
}

// failureRecorder also captures TxFailed callbacks.
type failureRecorder struct {
	recorder
	failed []*radio.Frame
}

func (f *failureRecorder) TxFailed(fr *radio.Frame) { f.failed = append(f.failed, fr) }

func TestTxFailedForwardedToProtocol(t *testing.T) {
	w := newWorld()
	b := energy.NewBattery(energy.PaperModel(), 500)
	h := New(Config{
		ID: 1, Engine: w.engine, RNG: w.rng, Channel: w.channel,
		Bus: w.bus, Partition: w.partition, Mobility: at(100, 100), Battery: b,
	})
	rec := &failureRecorder{}
	h.SetProtocol(rec)
	h.Start()
	// Unicast to a nonexistent host: after MAC retries the protocol
	// must see the failure.
	w.engine.Schedule(0.001, func() {
		h.Send(&radio.Frame{Kind: "data", Dst: 42, Bytes: 100})
	})
	w.engine.Run(2)
	if len(rec.failed) != 1 {
		t.Fatalf("protocol saw %d failures, want 1", len(rec.failed))
	}
	if rec.failed[0].Dst != 42 {
		t.Fatalf("failed frame = %v", rec.failed[0])
	}
}

func TestPageFromDeadHostIsNoOp(t *testing.T) {
	w := newWorld()
	a, _ := w.host(1, at(100, 100), 5) // dies in ≈5.8 s
	b, recB := w.host(2, at(150, 150), 500)
	b.Sleep()
	w.engine.Run(30)
	if !a.Dead() {
		t.Fatal("setup: a alive")
	}
	a.Page(2)
	a.PageGrid(grid.Coord{X: 1, Y: 1})
	w.engine.Run(31)
	if len(recB.wakes) != 0 {
		t.Fatal("dead host's page woke someone")
	}
}
