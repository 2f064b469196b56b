package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ecgrid/internal/batch"
	"ecgrid/internal/store"
)

// reproduce runs the named experiments through Reproduce and fails the
// test on error.
func reproduce(t *testing.T, names []Figure, opt Options, bopt batch.Options) []Output {
	t.Helper()
	outs, err := Reproduce(context.Background(), names, opt, bopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(names) {
		t.Fatalf("%d outputs for %d names", len(outs), len(names))
	}
	return outs
}

// figure reproduces one figure (or Load) under default batch options.
func figure(t *testing.T, fig Figure, opt Options) *Result {
	t.Helper()
	return reproduce(t, []Figure{fig}, opt, batch.Options{})[0].(*Result)
}

func TestAllListsTenFigures(t *testing.T) {
	figs := All()
	if len(figs) != 10 {
		t.Fatalf("All() lists %d figures, want 10", len(figs))
	}
	seen := map[Figure]bool{}
	for _, f := range figs {
		if seen[f] {
			t.Fatalf("duplicate figure %s", f)
		}
		seen[f] = true
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := Reproduce(context.Background(), []Figure{Fig4a, "9z"}, Options{}, batch.Options{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := Run(Figure("9z"), Options{}); err == nil {
		t.Fatal("Run accepted an unknown figure")
	}
}

func TestFig4aFastShape(t *testing.T) {
	res := figure(t, Fig4a, Options{Seed: 1, Fast: true})
	if len(res.Series) != 3 {
		t.Fatalf("fig 4a has %d series, want 3 (grid, ecgrid, gaf)", len(res.Series))
	}
	byLabel := map[string]Series{}
	for _, s := range res.Series {
		byLabel[s.Label] = s
		// Alive fractions live in [0, 1] and start at 1.
		if s.Points[0].Y != 1 {
			t.Errorf("%s does not start fully alive: %v", s.Label, s.Points[0])
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Errorf("%s alive fraction out of range: %+v", s.Label, p)
			}
		}
	}
	// The Fig 4 headline: GRID collapses around 590 s while ECGRID and
	// GAF stay mostly alive.
	last := func(l string) float64 {
		pts := byLabel[l].Points
		return pts[len(pts)-1].Y
	}
	if last("grid") > 0.1 {
		t.Errorf("GRID still %.2f alive at the horizon", last("grid"))
	}
	if last("ecgrid") < 0.5 || last("gaf") < 0.5 {
		t.Errorf("energy-aware protocols died early: ecgrid=%.2f gaf=%.2f",
			last("ecgrid"), last("gaf"))
	}
}

func TestFig5aFastShape(t *testing.T) {
	res := figure(t, Fig5a, Options{Seed: 1, Fast: true})
	byLabel := map[string][]Point{}
	for _, s := range res.Series {
		byLabel[s.Label] = s.Points
		prev := -1.0
		for _, p := range s.Points {
			if p.Y < prev-1e-9 {
				t.Errorf("%s aen decreased at t=%v", s.Label, p.X)
			}
			prev = p.Y
		}
	}
	// Fig 5 headline: GRID consumes the most at any common time.
	at := func(l string, x float64) float64 {
		for _, p := range byLabel[l] {
			if p.X == x {
				return p.Y
			}
		}
		t.Fatalf("%s has no sample at %v", l, x)
		return 0
	}
	if at("grid", 500) <= at("ecgrid", 500) || at("grid", 500) <= at("gaf", 500) {
		t.Errorf("aen ordering wrong at t=500: grid=%.3f ecgrid=%.3f gaf=%.3f",
			at("grid", 500), at("ecgrid", 500), at("gaf", 500))
	}
}

func TestFig7aFastShape(t *testing.T) {
	res := figure(t, Fig7a, Options{Seed: 1, Fast: true})
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Y < 0.5 || p.Y > 1 {
				t.Errorf("%s delivery rate %.3f at pause %v out of plausible band",
					s.Label, p.Y, p.X)
			}
		}
	}
}

func TestFig6aFastShape(t *testing.T) {
	res := figure(t, Fig6a, Options{Seed: 1, Fast: true})
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.Y <= 0 || p.Y > 500 {
				t.Errorf("%s latency %.1f ms at pause %v implausible", s.Label, p.Y, p.X)
			}
		}
	}
}

func TestFig8aFastShape(t *testing.T) {
	res := figure(t, Fig8a, Options{Seed: 1, Fast: true})
	// Fast mode: grid and ecgrid at 50 and 200 hosts → 4 series.
	if len(res.Series) != 4 {
		t.Fatalf("fig 8a has %d series, want 4", len(res.Series))
	}
	last := map[string]float64{}
	for _, s := range res.Series {
		last[s.Label] = s.Points[len(s.Points)-1].Y
	}
	// Fig 8 headline: density helps ECGRID, not GRID.
	if last["ecgrid n=200"] <= last["grid n=200"] {
		t.Errorf("ECGRID (%.2f) not above GRID (%.2f) at n=200",
			last["ecgrid n=200"], last["grid n=200"])
	}
}

// TestParallelMatchesSerial: the same figure, with seed replicates,
// produces byte-identical serialized results at workers=1 and workers=8
// — the batch layer's core guarantee, asserted at the figure level.
func TestParallelMatchesSerial(t *testing.T) {
	opt := Options{Seed: 1, Seeds: 2, Fast: true}
	serial := reproduce(t, []Figure{Fig7a}, opt, batch.Options{Workers: 1})
	parallel := reproduce(t, []Figure{Fig7a}, opt, batch.Options{Workers: 8})
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("workers=1 and workers=8 disagree:\n%s\n%s", a, b)
	}
}

// TestStoreReproducesFigure: a figure regenerated from a warm store (every
// run served from it, none executed) equals the cold original byte for
// byte.
func TestStoreReproducesFigure(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.DefaultCacheEntries)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 1, Fast: true}
	first := reproduce(t, []Figure{Fig7a}, opt, batch.Options{Store: st})
	var lines []string
	bopt := batch.Options{Store: st, Progress: batch.NewSink(func(s string) { lines = append(lines, s) })}
	second := reproduce(t, []Figure{Fig7a}, opt, bopt)
	if len(lines) == 0 {
		t.Fatal("warm run logged no progress")
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, "(cached)") {
			t.Fatalf("warm run executed %q instead of reading the store", l)
		}
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("figure from the warm store differs from the cold run:\n%s\n%s", a, b)
	}
}

func TestProgressCallback(t *testing.T) {
	var lines []string
	reproduce(t, []Figure{Fig7a}, Options{Seed: 1, Fast: true},
		batch.Options{Progress: batch.NewSink(func(s string) { lines = append(lines, s) })})
	if len(lines) == 0 {
		t.Fatal("no progress lines")
	}
}

// TestSharedRunsPlannedOnce: Figs 4a and 5a plot the same three runs.
// Planned together they run, and log, three simulations, and each
// figure's series equal those from planning it alone.
func TestSharedRunsPlannedOnce(t *testing.T) {
	opt := Options{Seed: 1, Fast: true}
	var lines []string
	both := reproduce(t, []Figure{Fig4a, Fig5a}, opt,
		batch.Options{Progress: batch.NewSink(func(s string) { lines = append(lines, s) })})
	if len(lines) != 3 {
		t.Fatalf("Figs 4a and 5a together logged %d runs, want 3: %q", len(lines), lines)
	}
	for i, fig := range []Figure{Fig4a, Fig5a} {
		alone, err := json.Marshal(figure(t, fig, opt))
		if err != nil {
			t.Fatal(err)
		}
		together, err := json.Marshal(both[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(alone) != string(together) {
			t.Errorf("fig %s planned with another figure differs from planned alone:\n%s\n%s", fig, together, alone)
		}
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	res := &Result{
		Figure: Fig7a,
		Title:  "demo",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{0, 1}, {1, 0.5}}},
			{Label: "b", Points: []Point{{0, 0.9}}},
		},
	}
	var tbl bytes.Buffer
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"Figure 7a", "demo", "a", "b", "1.0000", "0.9000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Series b has no sample at x=1: the table marks it with '-'.
	if !strings.Contains(out, "-") {
		t.Error("missing-sample marker absent")
	}

	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "x,a,b" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[1] != "0,1,0.9" {
		t.Errorf("csv row = %q", lines[1])
	}
	if lines[2] != "1,0.5," {
		t.Errorf("csv missing-value row = %q", lines[2])
	}
}

func TestMultiSeedAveraging(t *testing.T) {
	res := figure(t, Fig7a, Options{Seed: 1, Seeds: 2, Fast: true})
	for _, s := range res.Series {
		if s.CI == nil || len(s.CI) != len(s.Points) {
			t.Fatalf("%s: missing CI (%d vs %d points)", s.Label, len(s.CI), len(s.Points))
		}
		for i, ci := range s.CI {
			if ci < 0 {
				t.Fatalf("%s: negative CI at %d", s.Label, i)
			}
		}
	}
	var tbl bytes.Buffer
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "±") {
		t.Fatal("multi-seed table has no ± column")
	}
}

func TestOverheadExperiment(t *testing.T) {
	// The breakdown has no mean±CI form: extra seeds plan no extra runs.
	var lines []string
	res := reproduce(t, []Figure{Overhead}, Options{Seed: 1, Seeds: 2, Fast: true},
		batch.Options{Progress: batch.NewSink(func(s string) { lines = append(lines, s) })})[0].(*OverheadResult)
	if len(lines) != 3 {
		t.Fatalf("overhead at two seeds logged %d runs, want 3: %q", len(lines), lines)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	byProto := map[string]OverheadRow{}
	for _, r := range res.Rows {
		byProto[string(r.Protocol)] = r
		if r.Delivered == 0 {
			t.Errorf("%s delivered nothing", r.Protocol)
		}
		if r.DataBytes == 0 || r.ControlBytes == 0 {
			t.Errorf("%s has empty breakdown: %+v", r.Protocol, r)
		}
		if r.ControlBytesPerDelivered() <= 0 {
			t.Errorf("%s zero control cost", r.Protocol)
		}
	}
	// ECGRID's defining overhead: it pages sleeping destinations and
	// exchanges sleep/awake notices; GRID does none of that.
	ec := byProto["ecgrid"].ByKind
	if ec["acq"].Frames == 0 && ec["awake"].Frames == 0 {
		t.Error("ECGRID shows no ACQ/awake traffic")
	}
	gr := byProto["grid"].ByKind
	if gr["sleep"].Frames != 0 {
		t.Error("GRID shows sleep notices")
	}

	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ctrl-B/deliv") {
		t.Fatalf("table missing header: %s", buf.String())
	}
}

// TestReproduceCancelled: a cancelled batch comes back as an error from
// every experiment, the overhead breakdown included, never as a panic.
func TestReproduceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := Reproduce(ctx, []Figure{Fig4a, Overhead}, Options{Seed: 1, Fast: true}, batch.Options{})
	if err == nil || outs != nil {
		t.Fatalf("cancelled Reproduce = %v, %v; want no outputs and an error", outs, err)
	}
}

func TestOverheadRowZeroDelivered(t *testing.T) {
	r := OverheadRow{ControlBytes: 100}
	if r.ControlBytesPerDelivered() != 0 {
		t.Fatal("division by zero delivered not guarded")
	}
}

func TestLoadSweepExtension(t *testing.T) {
	res := figure(t, Load, Options{Seed: 1, Fast: true})
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y < 0.3 || p.Y > 1 {
				t.Errorf("%s delivery %.3f at rate %v implausible", s.Label, p.Y, p.X)
			}
		}
	}
}
