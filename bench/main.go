// Command ecgridbench is the repository's benchmark: it runs named
// workloads of the simulator and its service path, checks their outputs,
// and prints end-to-end metrics (and, traced, per-layer metrics). See
// README.md for the workloads, metrics and modes.
//
// Build and run it from the repository root with bash bench/run.sh, or
// from this directory with go run . -root ..
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the parent: it parses flags, drives the children and prints.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecgridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "measure one workload for -seconds and print a JSON result as the last line (default: all workloads in rounds)")
	seed := fs.Int64("seed", 1, "seed every workload derives its inputs from")
	seconds := fs.Float64("seconds", 25, "with -workload: how long to measure")
	trace := fs.Int("trace", 0, "1: with -workload, measure traced and report per-layer metrics; without, add a traced round")
	rounds := fs.Int("rounds", 5, "without -workload: rounds over all workloads")
	sets := fs.Int("sets", 1, "without -workload: full sets to run back to back; 2 or more prints their agreement (calibration)")
	root := fs.String("root", ".", "repository root: holds scenarios/ and BENCHMARK.json (read for -sets bounds)")
	out := fs.String("out", "", "directory for profiles and spans (default <root>/.bench_build/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ecgridbench: -trace must be 0 or 1")
		return 2
	}
	if *workload != "" {
		if _, ok := workloadByName(*workload); !ok {
			fmt.Fprintf(stderr, "ecgridbench: unknown workload %q\n", *workload)
			return 2
		}
	} else if *rounds < 1 || *sets < 1 {
		fmt.Fprintln(stderr, "ecgridbench: -rounds and -sets must be at least 1")
		return 2
	}
	var bounds map[string]float64
	if *sets > 1 {
		var err error
		if bounds, err = readBounds(filepath.Join(*root, "BENCHMARK.json")); err != nil {
			fmt.Fprintf(stderr, "ecgridbench: %v\n", err)
			return 2
		}
	}
	if *out == "" {
		*out = filepath.Join(*root, ".bench_build", "out")
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "ecgridbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "ecgridbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "ecgridbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	recorded, err := recordedFingerprints()
	if err != nil {
		fmt.Fprintf(stderr, "ecgridbench: %v\n", err)
		return 1
	}
	d := &parent{exe: exe, seed: *seed, root: *root, out: *out, work: work,
		stderr: stderr, childLimit: 150 * time.Second}

	if *workload != "" {
		a := d.measure(*workload, *seconds, *trace == 1)
		return report(stdout, []*agg{a}, recorded, *seed, *trace == 1, true)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var all [][]*agg
	code := 0
	for s := 1; s <= *sets; s++ {
		if *sets > 1 {
			fmt.Fprintf(stdout, "== set %d/%d\n", s, *sets)
		}
		aggs := d.rounds(names, *rounds, *trace == 1)
		if c := report(stdout, aggs, recorded, *seed, *trace == 1, false); c != 0 {
			code = c
		}
		all = append(all, aggs)
	}
	if *sets > 1 {
		calibrate(stdout, all, bounds)
	}
	return code
}

// report prints the metrics of aggs and returns the exit code: 1 when any
// operation failed or a check did not hold. With jsonLine set (one
// -workload), the last line is the machine-readable result.
func report(w io.Writer, aggs []*agg, recorded map[string][]string, seed int64, traced, jsonLine bool) int {
	correct := true
	attempted, failed := 0, 0
	for _, a := range aggs {
		bad := a.check(recorded)
		for i, f := range bad {
			if i == 10 {
				fmt.Fprintf(w, "%s: ... %d more failures\n", a.name, len(bad)-10)
				break
			}
			fmt.Fprintf(w, "FAIL %s: %s\n", a.name, f)
		}
		correct = correct && len(bad) == 0
		attempted += a.attempted
		failed += a.failed
	}
	printEndToEnd(w, aggs)
	if traced {
		printLayers(w, aggs)
	}
	for _, a := range aggs {
		fmt.Fprintf(w, "%s: attempted %d, failed %d (failed_frac %.4g)\n",
			a.name, a.attempted, a.failed, ratio(float64(a.failed), float64(a.attempted)))
		for i := 0; i < minReps; i++ {
			if fp, ok := a.fingerprints[inputSeed(seed, i)]; ok {
				fmt.Fprintf(w, "%s: fingerprint at seed %d: %s\n", a.name, inputSeed(seed, i), fp)
			}
		}
	}
	if jsonLine {
		defs, vals := endToEnd, aggs[0].endToEnd()
		if traced {
			defs, vals = perLayerDefs(), aggs[0].perLayer()
		}
		res := struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{correct, attempted, failed, make(map[string]metricValue)}
		for _, m := range defs {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(w, "ecgridbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	if !correct || attempted == 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printEndToEnd prints each workload's end-to-end metrics with their
// spread over repetitions.
func printEndToEnd(w io.Writer, aggs []*agg) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tspread\tn")
	for _, a := range aggs {
		vals := a.endToEnd()
		for _, m := range endToEnd {
			xs := a.samples(m.name)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.1f%%\t%d\n", a.name, m.name, vals[m.name], m.unit, 100*spread(xs), len(xs))
		}
	}
	tw.Flush()
}

// printLayers prints the per-layer metrics, one column per workload, and
// the profile samples behind each layer's CPU figure.
func printLayers(w io.Writer, aggs []*agg) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	header := "metric\tunit\t"
	for _, a := range aggs {
		header += a.name + "\t"
	}
	fmt.Fprintln(tw, header)
	vals := make([]map[string]float64, len(aggs))
	for i, a := range aggs {
		vals[i] = a.perLayer()
	}
	for _, m := range perLayerDefs() {
		line := m.name + "\t" + m.unit + "\t"
		for i := range aggs {
			line += fmt.Sprintf("%.6g\t", vals[i][m.name])
		}
		fmt.Fprintln(tw, line)
	}
	fmt.Fprintln(tw, "\t\t")
	fmt.Fprintln(tw, "layer samples (share)\t\t"+strings.Repeat("\t", len(aggs)))
	for _, l := range allLayers() {
		line := l + "\t\t"
		for _, a := range aggs {
			line += fmt.Sprintf("%d (%.1f%%)\t", a.attr.samples[l], 100*a.attr.share(l))
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
}

// readBounds reads the end-to-end regression bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, m := range endToEnd {
		if _, ok := bounds[m.name]; !ok {
			return nil, errors.New(path + ": no bound for end-to-end metric " + m.name)
		}
	}
	return bounds, nil
}

// calibrate compares the sets' medians metric by metric: a metric agrees
// on a workload when every later set's median is within its bound of the
// first set's. The spreads show each set's run-to-run noise.
func calibrate(w io.Writer, sets [][]*agg, bounds map[string]float64) {
	fmt.Fprintln(w, "== calibration")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedians\tmax diff\tbound\tspreads\tagree")
	var disagree []string
	for i, a := range sets[0] {
		for _, m := range endToEnd {
			base := median(a.samples(m.name))
			var meds, spreads []string
			diff := 0.0
			for _, set := range sets {
				xs := set[i].samples(m.name)
				med := median(xs)
				meds = append(meds, fmt.Sprintf("%.4g", med))
				spreads = append(spreads, fmt.Sprintf("%.1f%%", 100*spread(xs)))
				diff = max(diff, math.Abs(ratio(med-base, base)))
			}
			ok := diff <= bounds[m.name]
			if !ok {
				disagree = append(disagree, a.name+"/"+m.name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%.0f%%\t%s\t%v\n", a.name, m.name,
				strings.Join(meds, " "), 100*diff, 100*bounds[m.name], strings.Join(spreads, " "), ok)
		}
	}
	tw.Flush()
	if len(disagree) == 0 {
		fmt.Fprintln(w, "every end-to-end metric agrees within its bound on every workload")
	} else {
		fmt.Fprintf(w, "outside their bound (demote to per-layer): %s\n", strings.Join(disagree, ", "))
	}
}
