package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// parent re-executes this program as one child per repetition and
// aggregates what the children report.
type parent struct {
	exe        string
	seed       int64
	root, out  string
	work       string // children's scratch directory
	stderr     io.Writer
	childLimit time.Duration
	nprof      int // profiles and span files written so far
}

// Repetition counts in one -workload run: at least minReps (so a median
// exists), at most maxReps.
const (
	minReps = 3
	maxReps = 100
)

// seedStride separates the inputs of successive repetitions: repetition
// i of a run at seed s measures the workload at seed s+i·seedStride. A
// workload's work varies by seed (Fig8a sends 13% more frames at some
// seeds than at others), so a run's median then covers several inputs
// rather than one, and runs at nearby seeds never share an input.
const seedStride = 1_000_003

// inputSeed is the seed repetition rep of a run at seed measures.
func inputSeed(seed int64, rep int) int64 { return seed + int64(rep)*seedStride }

// childResult is one child's report plus what the parent measured of it.
type childResult struct {
	rep    childReport
	rssMB  float64
	stacks []stackSample // traced bodies only
}

// run executes one child and waits for it.
func (d *parent) run(w, mode string, seed int64, cpuprofile, spans string) (*childResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d.childLimit)
	defer cancel()
	args := []string{"-workload", w, "-mode", mode, "-seed", fmt.Sprint(seed),
		"-root", d.root, "-work", d.work}
	if cpuprofile != "" {
		args = append(args, "-cpuprofile", cpuprofile, "-spans", spans)
	}
	cmd := exec.CommandContext(ctx, d.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = d.stderr
	err := cmd.Run()
	if err != nil {
		return nil, fmt.Errorf("%s %s child: %w", w, mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	r := &childResult{}
	if err = json.Unmarshal(lines[len(lines)-1], &r.rep); err != nil {
		return nil, fmt.Errorf("%s %s child: bad report: %w", w, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if cpuprofile != "" {
		if r.stacks, err = readProfile(cpuprofile); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// body runs one repetition of w's body at seed and adds it to a. An
// untraced body runs between two reference children, whose mean is the
// machine-speed unit its wall time is divided by.
func (d *parent) body(a *agg, w string, seed int64, traced bool) {
	if traced {
		d.nprof++
		prof := filepath.Join(d.out, fmt.Sprintf("cpu-%s-%d.pprof", w, d.nprof))
		spans := filepath.Join(d.out, fmt.Sprintf("spans-%s-%d.jsonl", w, d.nprof))
		if r, err := d.run(w, "body", seed, prof, spans); err != nil {
			a.childFailed(err)
		} else {
			fmt.Fprintf(d.stderr, "%s traced body seed %d: wall %.4fs\n", w, seed, r.rep.WallS)
			a.addBody(r, seed, 0)
		}
		return
	}
	var ref float64
	var r *childResult
	for _, mode := range []string{"ref", "body", "ref"} {
		c, err := d.run(w, mode, seed, "", "")
		if err != nil {
			a.childFailed(err)
			return
		}
		if mode == "body" {
			r = c
		} else {
			ref += c.rep.RefS / 2
		}
	}
	fmt.Fprintf(d.stderr, "%s body seed %d: wall %.4fs cpu %.4fs rss %.1fMB ref %.2fms\n",
		w, seed, r.rep.WallS, r.rep.CPUS, r.rssMB, 1000*ref)
	a.addBody(r, seed, ref)
}

// setup runs one set-up child of w at seed and adds it to a.
func (d *parent) setup(a *agg, w string, seed int64) {
	r, err := d.run(w, "setup", seed, "", "")
	if err != nil {
		a.childFailed(err)
		return
	}
	fmt.Fprintf(d.stderr, "%s setup seed %d: median %.5fs of %d\n", w, seed, r.rep.SetupS, r.rep.Setups)
	a.setup = append(a.setup, r.rep.SetupS)
}

// measure runs w for about seconds and returns its repetitions. Untraced,
// repetition i runs a body child at inputSeed(seed, i), and the first
// minReps repetitions a set-up child too. Traced, every repetition runs
// at the run's seed itself, alternating traced and untraced bodies, so the
// work counts are those of one input and the untraced bodies give the
// tracing overhead. Repetitions stop when the next one would overrun.
func (d *parent) measure(w string, seconds float64, traced bool) *agg {
	a := newAgg(w)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var longest time.Duration
	for rep := 0; rep < maxReps && a.childErrs == 0; rep++ {
		t0 := time.Now()
		if traced {
			d.body(a, w, d.seed, rep%2 == 0)
		} else {
			seed := inputSeed(d.seed, rep)
			d.body(a, w, seed, false)
			if rep < minReps {
				d.setup(a, w, seed)
			}
		}
		longest = max(longest, time.Since(t0))
		if rep+1 >= minReps && time.Now().Add(longest).After(deadline) {
			break
		}
	}
	return a
}

// rounds runs every workload once per round, round-robin, so machine
// drift spreads evenly over them. Round r runs at inputSeed(seed, r); the
// traced round, if any, follows at the run's seed.
func (d *parent) rounds(names []string, n int, traced bool) []*agg {
	aggs := make([]*agg, len(names))
	for i, w := range names {
		aggs[i] = newAgg(w)
	}
	for r := 0; r < n; r++ {
		for i, w := range names {
			fmt.Fprintf(d.stderr, "round %d/%d: %s\n", r+1, n, w)
			d.body(aggs[i], w, inputSeed(d.seed, r), false)
			d.setup(aggs[i], w, inputSeed(d.seed, r))
		}
	}
	if traced {
		for i, w := range names {
			fmt.Fprintf(d.stderr, "traced round: %s\n", w)
			d.body(aggs[i], w, d.seed, true)
		}
	}
	return aggs
}

// agg accumulates one workload's children.
type agg struct {
	name              string
	wall, cpu, ref    []float64 // untraced bodies: raw times, reference unit
	wallRef, rss      []float64 // untraced bodies: normalized wall time, peak RSS
	setup             []float64
	tracedWall        []float64
	attempted, failed int
	childErrs         int
	failures          []string
	fingerprints      map[int64]string   // input seed → fingerprint
	counts            map[string]float64 // the first traced body's
	timings           map[string][]float64
	attr              *attribution
	traced            int
}

func newAgg(name string) *agg {
	return &agg{
		name:         name,
		fingerprints: make(map[int64]string),
		timings:      make(map[string][]float64),
		attr:         newAttribution(),
	}
}

// childFailed counts a child that crashed, hung or reported garbage as one
// failed operation.
func (a *agg) childFailed(err error) {
	a.childErrs++
	a.attempted++
	a.failed++
	a.failures = append(a.failures, err.Error())
}

// addBody adds a body child. ref is the reference time it is normalized
// by; 0 marks a traced body, which feeds the per-layer metrics only.
func (a *agg) addBody(r *childResult, seed int64, ref float64) {
	a.attempted += r.rep.Attempted
	a.failed += r.rep.Failed
	a.failures = append(a.failures, r.rep.Failures...)
	if fp, ok := a.fingerprints[seed]; ok && fp != r.rep.Fingerprint {
		a.failures = append(a.failures, fmt.Sprintf("seed %d: fingerprints differ between repetitions", seed))
	}
	a.fingerprints[seed] = r.rep.Fingerprint
	for k, v := range r.rep.Timings {
		a.timings[k] = append(a.timings[k], v)
	}
	if ref == 0 {
		if a.counts == nil {
			a.counts = r.rep.Counts
		}
		a.traced++
		a.tracedWall = append(a.tracedWall, r.rep.WallS)
		a.attr.add(r.stacks)
		return
	}
	a.wall = append(a.wall, r.rep.WallS)
	a.cpu = append(a.cpu, r.rep.CPUS)
	a.ref = append(a.ref, ref)
	a.wallRef = append(a.wallRef, r.rep.WallS/ref)
	a.rss = append(a.rss, r.rssMB)
}

// check returns every correctness failure: failed operations, repeated
// inputs whose fingerprints disagreed, and fingerprints of the default
// seed's first inputs that differ from the recorded ones.
func (a *agg) check(recorded map[string][]string) []string {
	bad := append([]string(nil), a.failures...)
	for i, want := range recorded[a.name] {
		seed := inputSeed(1, i)
		if got, ok := a.fingerprints[seed]; ok && got != want {
			bad = append(bad, fmt.Sprintf("seed %d: fingerprint %s, recorded %s", seed, got, want))
		}
	}
	return bad
}

// samples returns the repetitions behind an end-to-end metric.
func (a *agg) samples(metric string) []float64 {
	switch metric {
	case "wall_ref":
		return a.wallRef
	case "setup_s":
		return a.setup
	case "peak_rss_mb":
		return a.rss
	}
	panic("no samples for metric " + metric)
}

// endToEnd returns the end-to-end metrics: medians over repetitions.
func (a *agg) endToEnd() map[string]float64 {
	m := make(map[string]float64)
	for _, d := range endToEnd {
		m[d.name] = median(a.samples(d.name))
	}
	return m
}

// perLayer returns every per-layer metric: CPU per body by layer from the
// traced children, the first traced body's work counts, ratios of the two,
// and the medians of the children's measured values.
func (a *agg) perLayer() map[string]float64 {
	m := map[string]float64{
		"wall_s": median(a.wall),
		"cpu_s":  median(a.cpu),
		"ref_ms": 1000 * median(a.ref),
	}
	per := 1 / float64(max(a.traced, 1))
	cpu := func(ns int64) float64 { return float64(ns) / 1e9 * per }
	for _, l := range allLayers() {
		m[l+".cpu_s"] = cpu(a.attr.nanos[l])
	}
	for _, c := range []string{classMaps, classAlloc, classGC} {
		m["runtime."+c+"_cpu_s"] = cpu(a.attr.runtime[c])
	}
	m["trace.samples"] = float64(a.attr.total) * per
	if len(a.tracedWall) > 0 && len(a.wall) > 0 {
		m["trace.overhead_s"] = median(a.tracedWall) - median(a.wall)
	}
	for _, n := range append(append([]string(nil), radioCounts...), rxCacheCounts...) {
		m[n] = a.counts[n]
	}
	for _, k := range protoCounters {
		m["proto."+k] = a.counts["proto."+k]
	}
	m["shard.windows"] = a.counts["shard.windows"]
	m["radio.deliveries_per_frame"] = ratio(m["radio.deliveries"], m["radio.frames_sent"])
	m["radio.cpu_us_per_frame"] = ratio(m["radio.cpu_s"]*1e6, m["radio.frames_sent"])
	m["radio.rxcache_hit_ratio"] = ratio(m["radio.rxcache_hits"], m["radio.rxcache_hits"]+m["radio.rxcache_misses"])
	m["ras.cpu_us_per_page"] = ratio(m["ras.cpu_s"]*1e6, m["proto.pages"]+m["proto.gridpages"])
	for _, t := range childTimings {
		m[t.name] = median(a.timings[t.name])
	}
	return m
}
