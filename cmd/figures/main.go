// Command figures regenerates the paper's evaluation figures (Figs 4–8,
// both speed variants) as text tables or CSV, plus the two extensions:
// the on-air overhead breakdown and the load sweep. Every requested
// experiment's simulations (protocols × sweep points × seed replicates)
// are planned into one list, which runs each distinct simulation once
// across a worker pool; results are independent of the worker count.
//
// Usage:
//
//	figures                 # all ten figures and the overhead table
//	figures -fig 4a         # one figure
//	figures -fig overhead   # the on-air overhead breakdown
//	figures -fig load       # delivery vs per-flow rate
//	figures -csv -fig 7b    # CSV output (figures only)
//	figures -fast           # shrunken sweeps (shape-preserving)
//	figures -parallel 1     # serial execution
//	figures -store results/ # skip runs already in the result store
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"

	"ecgrid/internal/batch"
	"ecgrid/internal/experiment"
	"ecgrid/internal/scenario"
	"ecgrid/internal/store"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate (4a..8b, overhead, load); empty runs the figures and overhead")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		fast     = flag.Bool("fast", false, "shrunken sweeps for quick runs")
		seed     = flag.Int64("seed", 1, "random seed")
		seeds    = flag.Int("seeds", 1, "repeat across this many seeds and report mean±CI")
		out      = flag.String("out", "", "also write one CSV per figure into this directory")
		parallel = flag.Int("parallel", 0, "concurrent simulations; 0 uses all cores, 1 runs serially")
		storeDir = flag.String("store", "", "content-addressed result store directory shared with simd; cached runs are skipped")
		quiet    = flag.Bool("q", false, "suppress per-run progress on stderr")
		scenRef  = flag.String("scenario", "",
			"overlay the generator spec of this scenario (a JSON file or scenarios/<name> entry) onto every figure run")
	)
	flag.Parse()

	names := []experiment.Figure{experiment.Figure(*fig)}
	if *fig == "" {
		names = append(experiment.All(), experiment.Overhead)
	}
	if *csv {
		// The overhead breakdown has no CSV form.
		names = slices.DeleteFunc(names, func(n experiment.Figure) bool { return n == experiment.Overhead })
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := experiment.Options{Seed: *seed, Seeds: *seeds, Fast: *fast}
	bopt := batch.Options{Workers: *parallel}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.DefaultCacheEntries)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bopt.Store = st
	}
	if *scenRef != "" {
		loaded, err := scenario.ResolveRef(*scenRef)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if loaded.Gen.Empty() {
			fmt.Fprintf(os.Stderr, "scenario %q carries no generator spec to overlay\n", *scenRef)
			os.Exit(2)
		}
		opt.Gen = loaded.Gen
	}
	if !*quiet {
		// The batch layer serializes calls, so this closure needs no
		// locking even with -parallel > 1.
		bopt.Progress = batch.NewSink(func(s string) {
			fmt.Fprintf(os.Stderr, "running %s\n", s)
		})
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	outs, err := experiment.Reproduce(ctx, names, opt, bopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, o := range outs {
		res, isFig := o.(*experiment.Result)
		if isFig && *out != "" {
			if err := writeCSVFile(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *csv {
			fmt.Printf("# figure %s: %s\n", res.Figure, res.Title)
			if err := res.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if err := o.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeCSVFile stores one figure's CSV as <dir>/fig<id>.csv.
func writeCSVFile(dir string, res *experiment.Result) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("fig%s.csv", res.Figure)))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "# %s\n", res.Title); err != nil {
		return err
	}
	return res.WriteCSV(f)
}
