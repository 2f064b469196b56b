// Command repro checks the paper's evaluation claims against fresh
// simulation runs and prints a PASS/FAIL checklist — the repository's
// reproduction status as a program. Every claim declares the simulations
// it needs; repro runs each distinct one once, -parallel at a time, and
// prints the checklist in claim order regardless of completion order.
//
//	repro            # full horizons (a couple of minutes)
//	repro -fast      # shrunken horizons
//	repro -v         # show each simulation as it runs
//	repro -parallel 1                 # serial execution
//	repro -store results/             # skip runs already in the result store
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ecgrid/internal/batch"
	"ecgrid/internal/claims"
	"ecgrid/internal/store"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "random seed")
		fast     = flag.Bool("fast", false, "shrunken horizons")
		verbose  = flag.Bool("v", false, "print each simulation run")
		parallel = flag.Int("parallel", 0, "concurrent simulations; 0 uses all cores, 1 runs serially")
		storeDir = flag.String("store", "", "content-addressed result store directory shared with simd; cached runs are skipped")
	)
	flag.Parse()

	opt := batch.Options{Workers: *parallel}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.DefaultCacheEntries)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt.Store = st
	}
	if *verbose {
		opt.Progress = batch.NewSink(func(s string) { fmt.Fprintf(os.Stderr, "running %s\n", s) })
	}

	all := claims.All()
	verdicts := claims.Check(context.Background(), claims.NewEnv(*seed, *fast), all, opt)

	failures := 0
	for i, c := range all {
		v := verdicts[i]
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
			failures++
		}
		fmt.Printf("[%s] %s\n       %s\n       measured: %s\n\n", status, c.ID, c.Statement, v.Detail)
	}
	if failures > 0 {
		fmt.Printf("%d of %d claims failed\n", failures, len(all))
		os.Exit(1)
	}
	fmt.Printf("all %d claims reproduced\n", len(all))
}
