// Package experiment reproduces the paper's evaluation (§4): every figure
// is a named experiment that sweeps the right parameters, runs the
// simulator, and returns the same series the paper plots.
//
//	Fig 4 — fraction of alive hosts vs time (GRID, ECGRID, GAF)
//	Fig 5 — mean energy consumption per host (aen) vs time
//	Fig 6 — packet delivery latency vs pause time
//	Fig 7 — packet delivery rate vs pause time
//	Fig 8 — fraction of alive hosts vs time across host densities
//
// The (a) variants use a 1 m/s top speed, the (b) variants 10 m/s, as in
// the paper.
//
// Execution is batched: each figure first plans every simulation it
// needs (all protocols, sweep points, and seed replicates), then fans
// the whole job list across internal/batch's worker pool and folds the
// indexed results back into series. Because every simulation is
// deterministic and results are collected by job index, any Workers
// setting reproduces the serial output exactly.
package experiment

import (
	"context"
	"fmt"
	"io"
	"sort"

	"ecgrid/internal/batch"
	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
	"ecgrid/internal/scengen"
	"ecgrid/internal/stats"
)

// Figure names one of the paper's evaluation figures.
type Figure string

// The ten figures of §4.
const (
	Fig4a Figure = "4a"
	Fig4b Figure = "4b"
	Fig5a Figure = "5a"
	Fig5b Figure = "5b"
	Fig6a Figure = "6a"
	Fig6b Figure = "6b"
	Fig7a Figure = "7a"
	Fig7b Figure = "7b"
	Fig8a Figure = "8a"
	Fig8b Figure = "8b"
)

// All lists every figure in paper order.
func All() []Figure {
	return []Figure{Fig4a, Fig4b, Fig5a, Fig5b, Fig6a, Fig6b, Fig7a, Fig7b, Fig8a, Fig8b}
}

// Options tune an experiment run.
type Options struct {
	// Seed roots all randomness; runs with equal seeds are identical.
	Seed int64
	// Seeds, when > 1, repeats the whole sweep with seeds Seed,
	// Seed+1, ..., and returns per-point means with 95 % confidence
	// half-widths in Series.CI.
	Seeds int
	// Fast shrinks the sweep (shorter horizon, fewer pause points) for
	// benchmarks and smoke tests. The series keep their shape.
	Fast bool
	// Progress, if non-nil, receives a line per sub-run. It is invoked
	// from one goroutine at a time (serialized through a batch.Sink), so
	// plain closures are safe even with Workers > 1; lines arrive in
	// completion order, not plan order.
	Progress func(string)
	// Workers caps concurrent simulation runs; <= 0 uses GOMAXPROCS.
	// Results are identical for every value (see the package comment).
	Workers int
	// Store, if non-nil, is a persistent content-addressed result cache
	// consulted before each run and filled after (see batch.ResultStore
	// and internal/store). It survives across processes and is shared
	// with cmd/simd.
	Store batch.ResultStore
	// Context, when non-nil, cancels in-flight sweeps.
	Context context.Context
	// Gen, when non-nil, overlays a scenario-generator spec onto every
	// figure config: the paper's sweeps re-run under generated
	// deployments, mobility, traffic shapes, or propagation maps
	// (cmd/figures -scenario). Changing Gen changes every batch key, so
	// stressed and plain figure runs never collide in a shared store.
	Gen *scengen.Spec
}

// Point is one sample of a result series.
type Point struct {
	X, Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
	// CI, when non-nil, holds the 95 % confidence half-width of each
	// point's Y (multi-seed runs).
	CI []float64
}

// Result is a reproduced figure.
type Result struct {
	Figure Figure
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// plan is a set of simulations plus the fold that turns their indexed
// results into a figure.
type plan struct {
	res  *Result
	jobs []batch.Job
	fold func(runs []*runner.Results)
}

// add appends one simulation to the plan.
func (p *plan) add(tag string, cfg scenario.Config) {
	p.jobs = append(p.jobs, batch.Job{Tag: tag, Cfg: cfg})
}

// Run reproduces the given figure. With Options.Seeds > 1 the sweep is
// repeated across seeds and the series report means with confidence
// half-widths; all replicates join one batch, so seed repeats fan out
// across workers just like sweep points do.
func Run(fig Figure, opt Options) (*Result, error) {
	seeds := opt.Seeds
	if seeds < 1 {
		seeds = 1
	}
	plans := make([]*plan, seeds)
	var jobs []batch.Job
	for i := 0; i < seeds; i++ {
		o := opt
		o.Seed = opt.Seed + int64(i)
		p, err := planOne(fig, o)
		if err != nil {
			return nil, err
		}
		plans[i] = p
		jobs = append(jobs, p.jobs...)
	}
	runs, err := runJobs(jobs, opt)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, seeds)
	off := 0
	for i, p := range plans {
		p.fold(runs[off : off+len(p.jobs)])
		off += len(p.jobs)
		results[i] = p.res
	}
	if seeds == 1 {
		return results[0], nil
	}
	return average(results), nil
}

// runJobs executes a job list under the options' batch settings and
// returns the results in job order, or an error if any job failed.
func runJobs(jobs []batch.Job, opt Options) ([]*runner.Results, error) {
	if opt.Gen != nil {
		for i := range jobs {
			jobs[i].Cfg.Gen = opt.Gen
			if opt.Gen.Mobility != nil {
				// The generator's mobility axis replaces the base model;
				// leaving both set would fail validation as ambiguous.
				jobs[i].Cfg.Mobility = ""
			}
		}
	}
	bopt := batch.Options{
		Workers:  opt.Workers,
		Progress: batch.NewSink(opt.Progress),
		Store:    opt.Store,
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results, sum := batch.Run(ctx, jobs, bopt)
	if err := sum.Err(); err != nil {
		return nil, err
	}
	out := make([]*runner.Results, len(results))
	for i, r := range results {
		out[i] = r.Res
	}
	return out, nil
}

// average merges same-shaped results into per-point means with 95 %
// confidence half-widths.
func average(results []*Result) *Result {
	out := *results[0]
	out.Series = make([]Series, len(results[0].Series))
	for si, base := range results[0].Series {
		s := Series{Label: base.Label}
		for pi, p := range base.Points {
			ys := make([]float64, 0, len(results))
			for _, r := range results {
				ys = append(ys, r.Series[si].Points[pi].Y)
			}
			mean, hw := stats.MeanCI(ys)
			s.Points = append(s.Points, Point{X: p.X, Y: mean})
			s.CI = append(s.CI, hw)
		}
		out.Series[si] = s
	}
	return &out
}

// planOne builds the figure's simulation plan for a single seed.
func planOne(fig Figure, opt Options) (*plan, error) {
	speed := 1.0
	switch fig {
	case Fig4b, Fig5b, Fig6b, Fig7b, Fig8b:
		speed = 10
	case Fig4a, Fig5a, Fig6a, Fig7a, Fig8a:
	default:
		return nil, fmt.Errorf("experiment: unknown figure %q", fig)
	}
	switch fig {
	case Fig4a, Fig4b:
		return planAliveVsTime(fig, speed, opt), nil
	case Fig5a, Fig5b:
		return planAenVsTime(fig, speed, opt), nil
	case Fig6a, Fig6b:
		return planPauseSweep(fig, speed, opt, true), nil
	case Fig7a, Fig7b:
		return planPauseSweep(fig, speed, opt, false), nil
	default: // 8a, 8b
		return planDensity(fig, speed, opt), nil
	}
}

// baseConfig is the paper's common setup at the given speed.
func baseConfig(p scenario.ProtocolKind, speed float64, seed int64) scenario.Config {
	cfg := scenario.Default(p)
	cfg.MaxSpeedMS = speed
	cfg.Seed = seed
	return cfg
}

// protocols in the order the paper's legends use.
var protocols = []scenario.ProtocolKind{scenario.GRID, scenario.ECGRID, scenario.GAF}

// sampleSeries reads a collector time series at step intervals.
func sampleSeries(label string, s *stats.Series, horizon, step float64) Series {
	out := Series{Label: label}
	for x := 0.0; x <= horizon; x += step {
		out.Points = append(out.Points, Point{X: x, Y: s.At(x)})
	}
	return out
}

// planAliveVsTime reproduces Fig 4: fraction of alive hosts vs simulation
// time, 100 hosts, 10 pkt/s, pause 0.
func planAliveVsTime(fig Figure, speed float64, opt Options) *plan {
	horizon, step := 2000.0, 100.0
	if opt.Fast {
		horizon, step = 700, 100
	}
	p := &plan{res: &Result{
		Figure: fig,
		Title:  fmt.Sprintf("Fraction of alive hosts vs time (speed ≤ %g m/s)", speed),
		XLabel: "Simulation time (s)",
		YLabel: "Fraction of alive hosts",
	}}
	for _, proto := range protocols {
		cfg := baseConfig(proto, speed, opt.Seed)
		cfg.Duration = horizon
		p.add(fmt.Sprintf("fig %s: %v", fig, cfg), cfg)
	}
	p.fold = func(runs []*runner.Results) {
		for i, proto := range protocols {
			p.res.Series = append(p.res.Series,
				sampleSeries(string(proto), &runs[i].Collector.Alive, horizon, step))
		}
	}
	return p
}

// planAenVsTime reproduces Fig 5: the paper's Eq. (2), normalized by the
// initial per-host energy so the y-axis runs 0..1.
func planAenVsTime(fig Figure, speed float64, opt Options) *plan {
	horizon, step := 2000.0, 100.0
	if opt.Fast {
		horizon, step = 700, 100
	}
	p := &plan{res: &Result{
		Figure: fig,
		Title:  fmt.Sprintf("Mean energy consumption per host (aen) vs time (speed ≤ %g m/s)", speed),
		XLabel: "Simulation time (s)",
		YLabel: "aen (fraction of initial energy)",
	}}
	for _, proto := range protocols {
		cfg := baseConfig(proto, speed, opt.Seed)
		cfg.Duration = horizon
		p.add(fmt.Sprintf("fig %s: %v", fig, cfg), cfg)
	}
	p.fold = func(runs []*runner.Results) {
		for i, proto := range protocols {
			p.res.Series = append(p.res.Series,
				sampleSeries(string(proto), &runs[i].Collector.Aen, horizon, step))
		}
	}
	return p
}

// planPauseSweep reproduces Figs 6 and 7: latency (ms) or delivery rate vs
// pause time, at simulation time 590 s (when the GRID network exhausts).
func planPauseSweep(fig Figure, speed float64, opt Options, latency bool) *plan {
	pauses := []float64{0, 100, 200, 300, 400, 500, 600}
	duration := 590.0
	if opt.Fast {
		pauses = []float64{0, 300, 600}
		duration = 300
	}
	p := &plan{res: &Result{Figure: fig, XLabel: "Pause time (s)"}}
	if latency {
		p.res.Title = fmt.Sprintf("Packet delivery latency vs pause time (speed ≤ %g m/s)", speed)
		p.res.YLabel = "Latency (ms)"
	} else {
		p.res.Title = fmt.Sprintf("Packet delivery rate vs pause time (speed ≤ %g m/s)", speed)
		p.res.YLabel = "Delivery rate"
	}
	for _, proto := range protocols {
		for _, pause := range pauses {
			cfg := baseConfig(proto, speed, opt.Seed)
			cfg.PauseTime = pause
			cfg.Duration = duration
			p.add(fmt.Sprintf("fig %s: %v", fig, cfg), cfg)
		}
	}
	p.fold = func(runs []*runner.Results) {
		i := 0
		for _, proto := range protocols {
			s := Series{Label: string(proto)}
			for _, pause := range pauses {
				r := runs[i]
				i++
				y := r.DeliveryRate
				if latency {
					y = r.MeanLatency * 1000
				}
				s.Points = append(s.Points, Point{X: pause, Y: y})
			}
			p.res.Series = append(p.res.Series, s)
		}
	}
	return p
}

// planDensity reproduces Fig 8: alive fraction vs time for GRID and ECGRID
// at 50, 100, 150 and 200 hosts.
func planDensity(fig Figure, speed float64, opt Options) *plan {
	horizon, step := 2000.0, 100.0
	densities := []int{50, 100, 150, 200}
	if opt.Fast {
		horizon = 700
		densities = []int{50, 200}
	}
	p := &plan{res: &Result{
		Figure: fig,
		Title:  fmt.Sprintf("Alive hosts vs time across host densities (speed ≤ %g m/s)", speed),
		XLabel: "Simulation time (s)",
		YLabel: "Fraction of alive hosts",
	}}
	densityProtocols := []scenario.ProtocolKind{scenario.GRID, scenario.ECGRID}
	for _, proto := range densityProtocols {
		for _, n := range densities {
			cfg := baseConfig(proto, speed, opt.Seed)
			cfg.Hosts = n
			cfg.Duration = horizon
			p.add(fmt.Sprintf("fig %s: %v", fig, cfg), cfg)
		}
	}
	p.fold = func(runs []*runner.Results) {
		i := 0
		for _, proto := range densityProtocols {
			for _, n := range densities {
				p.res.Series = append(p.res.Series,
					sampleSeries(fmt.Sprintf("%s n=%d", proto, n), &runs[i].Collector.Alive, horizon, step))
				i++
			}
		}
	}
	return p
}

// WriteTable renders the figure as an aligned text table: one row per X,
// one column per series.
func (r *Result) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure %s: %s\n", r.Figure, r.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%16s", s.Label)
	}
	fmt.Fprintln(w)
	xs := r.xValues()
	for _, x := range xs {
		fmt.Fprintf(w, "%-18.6g", x)
		for _, s := range r.Series {
			v, ci, ok := valueCIAt(s, x)
			switch {
			case ok && ci > 0:
				fmt.Fprintf(w, "%16s", fmt.Sprintf("%.4f±%.4f", v, ci))
			case ok:
				fmt.Fprintf(w, "%16.4f", v)
			default:
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the figure as CSV with an x column and one column per
// series.
func (r *Result) WriteCSV(w io.Writer) error {
	fmt.Fprintf(w, "x")
	for _, s := range r.Series {
		fmt.Fprintf(w, ",%s", s.Label)
	}
	fmt.Fprintln(w)
	for _, x := range r.xValues() {
		fmt.Fprintf(w, "%g", x)
		for _, s := range r.Series {
			if v, ok := valueAt(s, x); ok {
				fmt.Fprintf(w, ",%g", v)
			} else {
				fmt.Fprintf(w, ",")
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// xValues collects the union of X coordinates across series, ascending.
func (r *Result) xValues() []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func valueAt(s Series, x float64) (float64, bool) {
	v, _, ok := valueCIAt(s, x)
	return v, ok
}

func valueCIAt(s Series, x float64) (v, ci float64, ok bool) {
	for i, p := range s.Points {
		if p.X == x {
			if s.CI != nil {
				ci = s.CI[i]
			}
			return p.Y, ci, true
		}
	}
	return 0, 0, false
}
