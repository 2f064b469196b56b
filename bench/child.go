package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// childEnv marks a re-executed child: each repetition runs in a fresh
// process so GC state, heap size and caches do not carry over.
const childEnv = "ECGRIDBENCH_CHILD"

// childReport is what a child prints as its last line of output.
type childReport struct {
	WallS, CPUS float64
	// SetupS is the median of Setups set-ups (setup children only).
	SetupS float64
	Setups int
	// RefS is the reference kernel's median chunk time (ref children only).
	RefS float64

	Attempted, Failed int
	Failures          []string
	Fingerprint       string
	// Counts are deterministic work counts; Timings measured values
	// (childTimings) that vary from run to run.
	Counts  map[string]float64
	Timings map[string]float64
}

// env is a child's view of its job.
type env struct {
	seed       int64
	root, work string
	cpuprofile string // non-empty: profile the timed body into this file
	spans      string // non-empty: write the body's spans here as JSONL

	rep      childReport
	fp       *fingerprinter
	measured bool
}

// traced reports whether this body runs under the profiler.
func (e *env) traced() bool { return e.cpuprofile != "" }

// measure runs fn as the body's timed part: wall time, CPU time from
// getrusage, allocation deltas, and the CPU profile when traced. Each
// body calls it exactly once.
func (e *env) measure(fn func()) error {
	if e.measured {
		return errors.New("body measured twice")
	}
	e.measured = true
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	var prof *os.File
	if e.traced() {
		if prof, err = os.Create(e.cpuprofile); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
	}
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
	}
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	e.rep.WallS = wall.Seconds()
	e.rep.CPUS = (cpu1 - cpu0).Seconds()
	e.rep.Timings["runtime.allocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	e.rep.Timings["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	e.rep.Timings["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// addRun records one simulation's outcome: it counts as attempted, fails
// on err or a broken invariant, and otherwise joins the fingerprint and
// the work counts.
func (e *env) addRun(label string, res *runner.Results, err error) {
	e.rep.Attempted++
	if err != nil {
		e.fail(fmt.Sprintf("%s: %v", label, err))
		return
	}
	if bad := checkRun(label, res); len(bad) > 0 {
		e.rep.Failed++
		e.rep.Failures = append(e.rep.Failures, bad...)
	}
	e.fp.add(label, res)
	addCounts(e.rep.Counts, res)
}

// fail records one failed operation.
func (e *env) fail(msg string) {
	e.rep.Failed++
	e.rep.Failures = append(e.rep.Failures, msg)
}

// safeRun is runner.Run with a panic reported as an error.
func safeRun(cfg scenario.Config) (res *runner.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return runner.Run(cfg), nil
}

// Set-up children repeat the set-up while under setupBudget, at most
// maxSetups times, and report the median.
const (
	maxSetups   = 50
	setupBudget = 250 * time.Millisecond
)

// childMain runs one repetition (-mode body), one batch of set-ups
// (-mode setup) or one reference measurement (-mode ref) of a workload and
// prints a childReport as JSON.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecgridbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	mode := fs.String("mode", "body", "body, setup or ref")
	e := &env{fp: newFingerprinter()}
	fs.Int64Var(&e.seed, "seed", 1, "workload seed")
	fs.StringVar(&e.root, "root", ".", "repository root")
	fs.StringVar(&e.work, "work", os.TempDir(), "scratch directory")
	fs.StringVar(&e.cpuprofile, "cpuprofile", "", "CPU profile of the body")
	fs.StringVar(&e.spans, "spans", "", "span output of the body (JSONL)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "child: unknown workload %q\n", *name)
		return 2
	}
	e.rep.Counts = make(map[string]float64)
	e.rep.Timings = make(map[string]float64)
	var err error
	switch *mode {
	case "body":
		if err = w.body(e); err == nil && !e.measured {
			err = errors.New("body was not measured")
		}
		e.rep.Fingerprint = e.fp.sum()
	case "setup":
		err = runSetups(w, e)
	case "ref":
		e.rep.RefS = runReference()
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "child %s %s: %v\n", *name, *mode, err)
		return 1
	}
	b, err := json.Marshal(&e.rep)
	if err != nil {
		fmt.Fprintf(stderr, "child: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// runSetups times the workload's set-up repeatedly and reports the median.
func runSetups(w workload, e *env) error {
	var ds []float64
	start := time.Now()
	for len(ds) == 0 || (time.Since(start) < setupBudget && len(ds) < maxSetups) {
		d, err := w.setup(e)
		if err != nil {
			return err
		}
		ds = append(ds, d.Seconds())
	}
	e.rep.SetupS = median(ds)
	e.rep.Setups = len(ds)
	return nil
}
