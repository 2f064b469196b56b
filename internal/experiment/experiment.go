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
// the paper. Two extensions beyond the paper are named experiments too:
// Overhead (the on-air data/control breakdown) and Load (delivery vs
// per-flow rate).
//
// Execution is planned: Reproduce plans every simulation the named
// experiments need (all protocols, sweep points, and seed replicates),
// runs the whole list through one batch.Run, and folds the indexed
// results back into each experiment's output. The figures share many
// simulations (Figs 4 and 5 plot the same runs, as do Figs 6 and 7, and
// at full size Fig 8's n=100 curves are Fig 4's), and batch.Run runs
// each distinct config once. Because every simulation is deterministic and results are
// collected by job index, any worker count reproduces the serial output
// exactly.
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

// Figure names one experiment: one of the paper's evaluation figures or
// one of the two extensions.
type Figure string

// The ten figures of §4, and the two extensions.
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

	// Overhead is the on-air overhead breakdown (see OverheadResult).
	Overhead Figure = "overhead"
	// Load is the delivery rate vs per-flow CBR rate sweep (see planLoad).
	Load Figure = "load"
)

// All lists every figure in paper order.
func All() []Figure {
	return []Figure{Fig4a, Fig4b, Fig5a, Fig5b, Fig6a, Fig6b, Fig7a, Fig7b, Fig8a, Fig8b}
}

// Options fix what an experiment's simulations are. How they run — the
// worker count, progress and result store — is Reproduce's
// batch.Options, and cancellation its context.
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
	// Gen, when non-nil, overlays a scenario-generator spec onto every
	// planned config: the paper's sweeps re-run under generated
	// deployments, mobility, traffic shapes, or propagation maps
	// (cmd/figures -scenario). Changing Gen changes every batch key, so
	// stressed and plain figure runs never collide in a shared store.
	Gen *scengen.Spec

	// Workers is Run's batch.Options.Workers.
	//
	// Deprecated: pass batch.Options to Reproduce. Only Run reads it.
	Workers int
	// Store is Run's batch.Options.Store.
	//
	// Deprecated: pass batch.Options to Reproduce. Only Run reads it.
	Store batch.ResultStore
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

// Output is one experiment's outcome: a *Result for a figure or Load,
// an *OverheadResult for Overhead.
type Output interface {
	WriteTable(w io.Writer) error
}

// plan is one experiment's simulations at one seed plus the fold that
// turns their results, in job order, into its output.
type plan struct {
	jobs []batch.Job
	fold func(runs []*runner.Results) Output
	// oneSeed marks an output with no mean±CI form: the experiment runs
	// at Options.Seed alone, whatever Options.Seeds says.
	oneSeed bool
}

// add appends one simulation to the plan.
func (p *plan) add(tag string, cfg scenario.Config) {
	p.jobs = append(p.jobs, batch.Job{Tag: tag, Cfg: cfg})
}

// Reproduce runs the named experiments and returns their outputs in
// names order. Every name × seed is planned up front and the whole list
// runs through one batch.Run under bopt, so seed repeats and sweep
// points fan out across workers alike, and a simulation that several
// experiments share runs once. With Options.Seeds > 1 a figure's series
// report means with confidence half-widths. The first failed run fails
// the whole call.
func Reproduce(ctx context.Context, names []Figure, opt Options, bopt batch.Options) ([]Output, error) {
	seeds := max(opt.Seeds, 1)
	plans := make([][]*plan, len(names)) // per name, one per seed
	var jobs []batch.Job
	for i, name := range names {
		for s := 0; s < seeds; s++ {
			o := opt
			o.Seed = opt.Seed + int64(s)
			p, err := planOne(name, o)
			if err != nil {
				return nil, err
			}
			plans[i] = append(plans[i], p)
			jobs = append(jobs, p.jobs...)
			if p.oneSeed {
				break
			}
		}
	}
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
	results, sum := batch.Run(ctx, jobs, bopt)
	if err := sum.Err(); err != nil {
		return nil, err
	}

	outs := make([]Output, len(names))
	off := 0
	for i, ps := range plans {
		var figs []*Result
		for _, p := range ps {
			runs := make([]*runner.Results, len(p.jobs))
			for j := range runs {
				runs[j] = results[off+j].Res
			}
			off += len(p.jobs)
			outs[i] = p.fold(runs)
			if r, ok := outs[i].(*Result); ok {
				figs = append(figs, r)
			}
		}
		if len(ps) > 1 { // only plans that fold to a *Result repeat
			outs[i] = average(figs)
		}
	}
	return outs, nil
}

// Run reproduces one figure (or Load) with opt.Workers and opt.Store as
// the batch options.
//
// Deprecated: use Reproduce. Run stays only because the bench module's
// fig8a workload calls it.
func Run(fig Figure, opt Options) (*Result, error) {
	outs, err := Reproduce(context.Background(), []Figure{fig}, opt,
		batch.Options{Workers: opt.Workers, Store: opt.Store})
	if err != nil {
		return nil, err
	}
	res, ok := outs[0].(*Result)
	if !ok {
		return nil, fmt.Errorf("experiment: %q is not a figure", fig)
	}
	return res, nil
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

// planOne builds the named experiment's simulation plan for a single
// seed.
func planOne(name Figure, opt Options) (*plan, error) {
	speed := 1.0
	switch name {
	case Overhead:
		return planOverhead(opt), nil
	case Load:
		return planLoad(opt), nil
	case Fig4b, Fig5b, Fig6b, Fig7b, Fig8b:
		speed = 10
	case Fig4a, Fig5a, Fig6a, Fig7a, Fig8a:
	default:
		return nil, fmt.Errorf("experiment: unknown figure %q", name)
	}
	switch name {
	case Fig4a, Fig4b:
		return planVsTime(name, speed, opt, false), nil
	case Fig5a, Fig5b:
		return planVsTime(name, speed, opt, true), nil
	case Fig6a, Fig6b:
		return planPauseSweep(name, speed, opt, true), nil
	case Fig7a, Fig7b:
		return planPauseSweep(name, speed, opt, false), nil
	default: // 8a, 8b
		return planDensity(name, speed, opt), nil
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

// sampleSeries reads a collector time series at step intervals from 0
// to horizon.
func sampleSeries(label string, s *stats.Series, horizon, step float64) Series {
	out := Series{Label: label}
	for _, p := range s.Resample(0, horizon, step) {
		out.Points = append(out.Points, Point{X: p.T, Y: p.V})
	}
	return out
}

// planVsTime reproduces Fig 4, the fraction of alive hosts vs simulation
// time, or with aen Fig 5, the paper's Eq. (2) normalized by the initial
// per-host energy so the y-axis runs 0..1: 100 hosts, 10 pkt/s, pause 0.
// Both figures plot the same runs.
func planVsTime(fig Figure, speed float64, opt Options, aen bool) *plan {
	horizon, step := 2000.0, 100.0
	if opt.Fast {
		horizon = 700
	}
	res := &Result{
		Figure: fig,
		Title:  fmt.Sprintf("Fraction of alive hosts vs time (speed ≤ %g m/s)", speed),
		XLabel: "Simulation time (s)",
		YLabel: "Fraction of alive hosts",
	}
	if aen {
		res.Title = fmt.Sprintf("Mean energy consumption per host (aen) vs time (speed ≤ %g m/s)", speed)
		res.YLabel = "aen (fraction of initial energy)"
	}
	p := &plan{}
	for _, proto := range protocols {
		cfg := baseConfig(proto, speed, opt.Seed)
		cfg.Duration = horizon
		p.add(fmt.Sprintf("fig %s: %v", fig, cfg), cfg)
	}
	p.fold = func(runs []*runner.Results) Output {
		for i, proto := range protocols {
			s := &runs[i].Collector.Alive
			if aen {
				s = &runs[i].Collector.Aen
			}
			res.Series = append(res.Series, sampleSeries(string(proto), s, horizon, step))
		}
		return res
	}
	return p
}

// planPauseSweep reproduces Figs 6 and 7: latency (ms) or delivery rate vs
// pause time, at simulation time 590 s (when the GRID network exhausts).
// Both figures plot the same runs.
func planPauseSweep(fig Figure, speed float64, opt Options, latency bool) *plan {
	pauses := []float64{0, 100, 200, 300, 400, 500, 600}
	duration := 590.0
	if opt.Fast {
		pauses = []float64{0, 300, 600}
		duration = 300
	}
	res := &Result{Figure: fig, XLabel: "Pause time (s)"}
	if latency {
		res.Title = fmt.Sprintf("Packet delivery latency vs pause time (speed ≤ %g m/s)", speed)
		res.YLabel = "Latency (ms)"
	} else {
		res.Title = fmt.Sprintf("Packet delivery rate vs pause time (speed ≤ %g m/s)", speed)
		res.YLabel = "Delivery rate"
	}
	p := &plan{}
	for _, proto := range protocols {
		for _, pause := range pauses {
			cfg := baseConfig(proto, speed, opt.Seed)
			cfg.PauseTime = pause
			cfg.Duration = duration
			p.add(fmt.Sprintf("fig %s: %v", fig, cfg), cfg)
		}
	}
	p.fold = func(runs []*runner.Results) Output {
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
			res.Series = append(res.Series, s)
		}
		return res
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
	res := &Result{
		Figure: fig,
		Title:  fmt.Sprintf("Alive hosts vs time across host densities (speed ≤ %g m/s)", speed),
		XLabel: "Simulation time (s)",
		YLabel: "Fraction of alive hosts",
	}
	densityProtocols := []scenario.ProtocolKind{scenario.GRID, scenario.ECGRID}
	p := &plan{}
	for _, proto := range densityProtocols {
		for _, n := range densities {
			cfg := baseConfig(proto, speed, opt.Seed)
			cfg.Hosts = n
			cfg.Duration = horizon
			p.add(fmt.Sprintf("fig %s: %v", fig, cfg), cfg)
		}
	}
	p.fold = func(runs []*runner.Results) Output {
		i := 0
		for _, proto := range densityProtocols {
			for _, n := range densities {
				res.Series = append(res.Series,
					sampleSeries(fmt.Sprintf("%s n=%d", proto, n), &runs[i].Collector.Alive, horizon, step))
				i++
			}
		}
		return res
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
