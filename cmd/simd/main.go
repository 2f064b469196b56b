// Command simd runs the simulator as a resident HTTP/JSON service
// backed by a persistent content-addressed result store: POST scenario
// configs to /v1/run, get runner.Results back — recomputed at most once
// per distinct config, ever, because determinism makes a content-key
// cache hit exact (DESIGN.md §12).
//
// Usage:
//
//	simd -addr :8171 -store simd-store
//	simd -addr :8171 -store simd-store -workers 8 -queue 128 -max-n 1000
//
// Endpoints:
//
//	POST /v1/run            run (or fetch) a scenario; body = scenario
//	                        JSON, ?base=<protocol> starts from defaults,
//	                        ?wait=0 for async 202 + poll URL
//	GET  /v1/result/{key}   fetch a result by content key
//	GET  /v1/jobs           in-flight jobs
//	POST /v1/generate       validate a scenario (incl. its generator
//	                        spec) and preview its result key, no run
//	GET  /healthz           liveness
//	GET  /metrics           counters + latency histograms (JSON)
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting, and
// in-flight requests and running simulations get -drain to finish
// (results that land in time are stored), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ecgrid/internal/server"
	"ecgrid/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", ":8171", "listen address")
		dir     = flag.String("store", "simd-store", "result store directory (created if absent)")
		workers = flag.Int("workers", 0, "concurrent simulations; 0 uses all cores")
		queue   = flag.Int("queue", 64, "max distinct in-flight jobs before 429")
		perCli  = flag.Int("per-client", 0, "max in-flight jobs per client token; 0 = queue/4")
		maxN    = flag.Int("max-n", 0, "reject configs with more hosts than this; 0 = unlimited")
		cache   = flag.Int("cache", store.DefaultCacheEntries, "in-memory LRU entries fronting the store")
		runTO   = flag.Duration("run-timeout", 0, "per-job execution budget; 0 = unbounded")
		maxWait = flag.Duration("max-wait", 2*time.Minute, "longest a blocking request may hold its connection")
		drain   = flag.Duration("drain", 30*time.Second, "graceful shutdown budget on SIGTERM")
	)
	flag.Parse()

	if err := run(*addr, *dir, *workers, *queue, *perCli, *maxN, *cache, *runTO, *maxWait, *drain); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr, dir string, workers, queue, perCli, maxN, cache int, runTO, maxWait, drain time.Duration) error {
	st, err := store.Open(dir, cache)
	if err != nil {
		return err
	}
	entries, err := st.Len()
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Store:      st,
		Workers:    workers,
		QueueDepth: queue,
		PerClient:  perCli,
		MaxHosts:   maxN,
		RunTimeout: runTO,
		MaxWait:    maxWait,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "simd: listening on %s, store %s (%d results)\n", addr, dir, entries)
		errc <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// ListenAndServe never returns nil; any early return is fatal.
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "simd: draining (up to %s)\n", drain)
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err = hs.Shutdown(shCtx) // stop accepting, let in-flight requests finish
	// Then fail anything still queued and wait for running simulations,
	// within what is left of the budget.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-shCtx.Done():
		fmt.Fprintln(os.Stderr, "simd: drain budget spent; abandoning running simulations")
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(os.Stderr, "simd: bye")
	return nil
}
