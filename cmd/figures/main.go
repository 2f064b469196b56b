// Command figures regenerates the paper's evaluation figures (Figs 4–8,
// both speed variants) as text tables or CSV. Each figure's simulations
// (protocols × sweep points × seed replicates) fan out across a worker
// pool; results are independent of the worker count.
//
// Usage:
//
//	figures                 # all ten figures, text tables
//	figures -fig 4a         # one figure
//	figures -csv -fig 7b    # CSV output
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
	"syscall"

	"ecgrid/internal/experiment"
	"ecgrid/internal/scenario"
	"ecgrid/internal/store"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate (4a..8b); empty runs all")
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

	var figs []experiment.Figure
	overhead := false
	switch *fig {
	case "":
		figs = experiment.All()
		overhead = true
	case "overhead":
		overhead = true
	default:
		figs = []experiment.Figure{experiment.Figure(*fig)}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := experiment.Options{
		Seed:    *seed,
		Seeds:   *seeds,
		Fast:    *fast,
		Workers: *parallel,
		Context: ctx,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.DefaultCacheEntries)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt.Store = st
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
		opt.Progress = func(s string) {
			fmt.Fprintf(os.Stderr, "running %s\n", s)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, f := range figs {
		res, err := experiment.Run(f, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *out != "" {
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
		if err := res.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if overhead && !*csv {
		res := experiment.RunOverhead(opt)
		if err := res.WriteTable(os.Stdout); err != nil {
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
