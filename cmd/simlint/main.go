// Command simlint runs the simulator's determinism-and-safety analyzer
// suite (internal/lint/...) over the given packages and fails on any
// diagnostic. It is the repo's answer to "the engine is bit-deterministic
// per seed" being a claim worth machine-enforcing:
//
//	maprange     range over maps in simulation packages
//	walltime     wall-clock reads and host timers in simulation packages
//	globalrand   global math/rand functions anywhere but internal/sim/rng.go
//	floateq      exact float ==/!= in geom, energy, and metrics
//	framelease   pooled NewFrame results released/handed off on every path (CFG dataflow)
//	handlestale  canceled sim.Handle fields zeroed before return, never read stale (CFG dataflow)
//	rngstream    RNG stream names minted by the internal/sim/streams.go registry
//	ctxerr       dropped errors and context-free goroutines in server/batch
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -tests ./internal/core/...
//	go run ./cmd/simlint -baseline .simlint-baseline ./...
//
// Exit status: 0 clean, 1 diagnostics reported (or baseline drift),
// 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ecgrid/internal/lint"
	"ecgrid/internal/lint/ctxerr"
	"ecgrid/internal/lint/floateq"
	"ecgrid/internal/lint/framelease"
	"ecgrid/internal/lint/globalrand"
	"ecgrid/internal/lint/handlestale"
	"ecgrid/internal/lint/maprange"
	"ecgrid/internal/lint/rngstream"
	"ecgrid/internal/lint/walltime"
)

// analyzers returns the full registered suite, in reporting order.
func analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		maprange.Analyzer,
		walltime.Analyzer,
		globalrand.Analyzer,
		floateq.Analyzer,
		framelease.Analyzer,
		handlestale.Analyzer,
		rngstream.Analyzer,
		ctxerr.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", "", "directory to resolve package patterns against (default: current directory)")
	tests := fs.Bool("tests", false, "also analyze *_test.go files declared in the package under test")
	baseline := fs.String("baseline", "", "compare findings and suppressions against this baseline file; any drift fails")
	writeBase := fs.String("write-baseline", "", "write the current findings/suppressions summary to this file and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [-C dir] [-tests] [-baseline file | -write-baseline file] [packages]\n\n")
		fmt.Fprintf(stderr, "Packages default to ./... . Analyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(lint.LoadConfig{Dir: *dir, Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	return report(pkgs, diags, *dir, *baseline, *writeBase, stdout, stderr)
}

// report prints the diagnostics of packages loaded from dir and analysed,
// writes or checks the baseline when one is named, and returns the exit
// status.
func report(pkgs []*lint.Package, diags []lint.Diagnostic, dir, baseline, writeBase string, stdout, stderr io.Writer) int {
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}

	// Baseline paths resolve against -C like the package patterns do.
	resolve := func(p string) string {
		if dir != "" && !filepath.IsAbs(p) {
			return filepath.Join(dir, p)
		}
		return p
	}
	root := dir
	if root == "" {
		root = "."
	}
	baseDir, err := filepath.Abs(root)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	cur := buildSummary(pkgs, diags, baseDir)

	if writeBase != "" {
		if err := writeBaseline(resolve(writeBase), cur); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "simlint: wrote %d baseline entries to %s\n", len(cur), writeBase)
		return 0
	}
	if baseline != "" {
		base, err := readBaseline(resolve(baseline))
		if err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
		drift := diffBaseline(base, cur)
		if len(drift) > 0 {
			for _, line := range drift {
				fmt.Fprintln(stdout, line)
			}
			fmt.Fprintf(stderr, "simlint: %d baseline drift line(s); regenerate with -write-baseline %s after review\n", len(drift), baseline)
			return 1
		}
		fmt.Fprintf(stderr, "simlint: %d finding(s) in %d package(s), all accounted for in %s\n", len(diags), len(pkgs), baseline)
		return 0
	}

	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d issue(s) in %d package(s) analyzed\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
