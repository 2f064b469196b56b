package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPaperModelConstants(t *testing.T) {
	m := PaperModel()
	// The figures of the paper's §4, in watts.
	if m.TransmitW != 1.4 || m.ReceiveW != 1.0 || m.IdleW != 0.83 || m.SleepW != 0.13 || m.GPSW != 0.033 {
		t.Fatalf("PaperModel = %+v", m)
	}
}

func TestPowerIncludesGPS(t *testing.T) {
	m := PaperModel()
	if !almost(m.Power(Transmit), 1.433) {
		t.Errorf("Power(Transmit) = %v", m.Power(Transmit))
	}
	if !almost(m.Power(Sleep), 0.163) {
		t.Errorf("Power(Sleep) = %v", m.Power(Sleep))
	}
	if !almost(m.Power(Idle), 0.863) {
		t.Errorf("Power(Idle) = %v", m.Power(Idle))
	}
	if !almost(m.Power(Receive), 1.033) {
		t.Errorf("Power(Receive) = %v", m.Power(Receive))
	}
}

func TestPowerUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Power(99) did not panic")
		}
	}()
	PaperModel().Power(Mode(99))
}

// TestBatteryUsesModelPower: the battery's per-mode draw is Model.Power
// bit for bit, finite and infinite batteries alike, and SetMode rejects
// a mode the model has no draw for.
func TestBatteryUsesModelPower(t *testing.T) {
	m := Model{TransmitW: 1.1, ReceiveW: 0.7, IdleW: 0.3, SleepW: 0.01, GPSW: 0.0007}
	for _, b := range []*Battery{NewBattery(m, 1e6), NewInfiniteBattery(m)} {
		for mode := Idle; mode <= Sleep; mode++ {
			b.SetMode(float64(mode), mode)
			before := b.ConsumedIn(float64(mode), mode)
			if got, want := b.ConsumedIn(float64(mode)+1, mode)-before, m.Power(mode); got != want {
				t.Errorf("infinite=%v: one second in %v consumed %v J, want Power = %v", b.IsInfinite(), mode, got, want)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("infinite=%v: SetMode(Mode(4)) did not panic", b.IsInfinite())
				}
			}()
			b.SetMode(10, Mode(4))
		}()
	}
}

func TestClassifyRbrc(t *testing.T) {
	cases := []struct {
		r    float64
		want Level
	}{
		{1.0, Upper},
		{0.61, Upper},
		{0.6, Boundary}, // paper: boundary if 0.2 < R ≤ 0.6
		{0.3, Boundary},
		{0.21, Boundary},
		{0.2, Lower},
		{0.05, Lower},
		{0, Lower},
	}
	for _, c := range cases {
		if got := ClassifyRbrc(c.r); got != c.want {
			t.Errorf("ClassifyRbrc(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestLevelBandsPartitionUnitIntervalProperty(t *testing.T) {
	f := func(v uint16) bool {
		r := float64(v) / 65535
		l := ClassifyRbrc(r)
		return l == Lower || l == Boundary || l == Upper
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryIdleDrain(t *testing.T) {
	b := NewBattery(PaperModel(), 500)
	// One hour idle: 0.863 W × 3600 s = 3106.8 J > 500 J, so check a
	// shorter interval: 100 s idle = 86.3 J.
	if got := b.Remaining(100); !almost(got, 500-86.3) {
		t.Fatalf("Remaining(100) = %v, want %v", got, 500-86.3)
	}
}

func TestBatteryModeSwitchAccrual(t *testing.T) {
	b := NewBattery(PaperModel(), 500)
	b.SetMode(10, Transmit) // 10 s idle
	b.SetMode(12, Sleep)    // 2 s transmit
	got := b.Remaining(112) // 100 s sleep
	want := 500 - 10*0.863 - 2*1.433 - 100*0.163
	if !almost(got, want) {
		t.Fatalf("Remaining = %v, want %v", got, want)
	}
	if !almost(b.ConsumedIn(112, Idle), 8.63) {
		t.Errorf("ConsumedIn(Idle) = %v", b.ConsumedIn(112, Idle))
	}
	if !almost(b.ConsumedIn(112, Transmit), 2.866) {
		t.Errorf("ConsumedIn(Transmit) = %v", b.ConsumedIn(112, Transmit))
	}
	if !almost(b.Consumed(112), 500-got) {
		t.Errorf("Consumed = %v, want %v", b.Consumed(112), 500-got)
	}
}

func TestBatteryMonotoneNonIncreasingProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		b := NewBattery(PaperModel(), 500)
		now := 0.0
		prev := 500.0
		for i, s := range steps {
			now += float64(s%50) / 10
			b.SetMode(now, Mode(i%4))
			r := b.Remaining(now)
			if r > prev+1e-9 || r < 0 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryConservationProperty(t *testing.T) {
	// consumed + remaining == full, exactly, while alive.
	f := func(steps []uint8) bool {
		b := NewBattery(PaperModel(), 1e6) // large enough to stay alive
		now := 0.0
		for i, s := range steps {
			now += float64(s) / 10
			b.SetMode(now, Mode(i%4))
		}
		return math.Abs(b.Consumed(now)+b.Remaining(now)-1e6) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryDies(t *testing.T) {
	b := NewBattery(PaperModel(), 500)
	// 500 J at idle draw 0.863 W → dead after ≈579.4 s.
	tte := b.TimeToEmpty(0, Idle)
	if !almost(tte, 500/0.863) {
		t.Fatalf("TimeToEmpty = %v, want %v", tte, 500/0.863)
	}
	if b.Dead(tte - 1) {
		t.Fatal("dead before exhaustion")
	}
	if !b.Dead(tte + 1) {
		t.Fatal("alive after exhaustion")
	}
	if b.Remaining(tte+100) != 0 {
		t.Fatalf("Remaining after death = %v, want 0", b.Remaining(tte+100))
	}
	// Consumption stops at death: total equals capacity.
	if !almost(b.Consumed(tte+1000), 500) {
		t.Fatalf("Consumed after death = %v, want 500", b.Consumed(tte+1000))
	}
}

func TestBatteryRbrcAndLevel(t *testing.T) {
	b := NewBattery(PaperModel(), 500)
	if b.Rbrc(0) != 1.0 || b.Level(0) != Upper {
		t.Fatal("fresh battery not at upper level")
	}
	// Drain idle to just under 60%: need to consume >200 J → >231.7 s.
	if lvl := b.Level(240); lvl != Boundary {
		t.Fatalf("Level after 240 s idle = %v (Rbrc=%v), want boundary", lvl, b.Rbrc(240))
	}
	// Below 20%: consume >400 J → >463.5 s.
	if lvl := b.Level(470); lvl != Lower {
		t.Fatalf("Level after 470 s idle = %v (Rbrc=%v), want lower", lvl, b.Rbrc(470))
	}
}

func TestInfiniteBattery(t *testing.T) {
	b := NewInfiniteBattery(PaperModel())
	if !b.IsInfinite() {
		t.Fatal("IsInfinite = false")
	}
	b.SetMode(0, Transmit)
	if b.Dead(1e9) {
		t.Fatal("infinite battery died")
	}
	if b.Rbrc(1e9) != 1.0 {
		t.Fatalf("Rbrc = %v, want 1", b.Rbrc(1e9))
	}
	if b.Level(1e9) != Upper {
		t.Fatal("infinite battery not at upper level")
	}
	if !math.IsInf(b.TimeToEmpty(1e9, Transmit), 1) {
		t.Fatal("TimeToEmpty not infinite")
	}
	// Consumption is still tracked (needed for aen under GAF Model 1).
	if got := b.ConsumedIn(1e9, Transmit); got <= 0 {
		t.Fatalf("ConsumedIn(Transmit) = %v, want > 0", got)
	}
}

func TestBatteryTimeBackwardsPanics(t *testing.T) {
	b := NewBattery(PaperModel(), 500)
	b.SetMode(10, Idle)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	b.Remaining(5)
}

func TestNewBatteryInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBattery(0) did not panic")
		}
	}()
	NewBattery(PaperModel(), 0)
}

func TestModeAndLevelStrings(t *testing.T) {
	if Idle.String() != "idle" || Transmit.String() != "transmit" ||
		Receive.String() != "receive" || Sleep.String() != "sleep" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode string wrong")
	}
	if Lower.String() != "lower" || Boundary.String() != "boundary" || Upper.String() != "upper" {
		t.Error("level names wrong")
	}
	if Level(9).String() != "Level(9)" {
		t.Error("unknown level string wrong")
	}
}

func TestBatteryModeGetterAndFull(t *testing.T) {
	b := NewBattery(PaperModel(), 500)
	if b.Mode() != Idle {
		t.Fatalf("initial Mode = %v", b.Mode())
	}
	b.SetMode(1, Sleep)
	if b.Mode() != Sleep {
		t.Fatalf("Mode after SetMode = %v", b.Mode())
	}
	if b.Full() != 500 {
		t.Fatalf("Full = %v", b.Full())
	}
}
