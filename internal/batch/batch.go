// Package batch fans independent simulation runs across a worker pool
// while preserving bit-identical, deterministically ordered results.
//
// Every (protocol, sweep-point, seed) simulation in this repository is an
// independent deterministic computation: runner.Run builds a private
// engine, RNG, channel, and collector per call, so runs can execute
// concurrently without sharing state. This package supplies the
// orchestration the evaluation layers need on top of that fact:
//
//   - a Job/Result model where results are collected by job index, never
//     by completion order, so any worker count reproduces the serial
//     output exactly;
//   - a stable content key per job (SHA-256 of the canonical config
//     encoding, see Key) under which a ResultStore keeps every
//     successful run, so rerunning an interrupted sweep on the same
//     store executes only the jobs it never finished;
//   - per-job panic isolation with the goroutine stack captured, and a
//     failed-jobs Summary instead of one bad configuration killing a
//     200-run sweep;
//   - context.Context cancellation and a goroutine-safe progress Sink
//     that serializes lines from concurrent workers.
//
// Run executes a job list known up front: callers plan their runs
// (cmd/figures and cmd/sweep per figure or sweep, cmd/repro per claim,
// deduplicated by Key), run them and fold the results. RunOnce is one
// run with neither store nor pool, for callers that keep results
// themselves (internal/server). Executor is deprecated and kept only for
// the bench module.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// Job is one simulation to run.
type Job struct {
	// Tag is an optional human-readable label used in progress lines.
	Tag string
	// Cfg is the scenario to run. It must be valid; an invalid config
	// panics inside runner.Run and surfaces as a failed Result.
	Cfg scenario.Config
}

// Result is the outcome of one job. Run returns results in job order.
type Result struct {
	// Index is the job's position in the submitted list.
	Index int
	// Tag echoes Job.Tag.
	Tag string
	// Key is the job's stable content key (see Key).
	Key string
	// Res holds the simulation results; nil when Err is non-nil.
	Res *runner.Results
	// Err is the run's failure, a *PanicError when the run panicked, or
	// the context error when cancelled before the job could run.
	Err error
	// Cached marks a job satisfied from Options.Store.
	Cached bool
}

// ResultStore caches completed results by content key, across processes
// and forever: determinism (DESIGN.md §8) means a key's results never go
// stale. *store.Store implements it; batch depends only on this
// interface so the store package stays an optional layer above.
//
// The store is strictly an optimization: Get errors make the job run,
// Put errors make it uncached — neither fails the batch. Failed runs are
// never stored, so a rerun on the same store executes them again.
type ResultStore interface {
	// Get returns the cached results for key, or ok=false on a miss.
	Get(key string) (*runner.Results, bool, error)
	// Put records res under key, overwriting any previous entry.
	Put(key string, res *runner.Results) error
}

// Options tune a batch run.
type Options struct {
	// Workers caps concurrent simulations; <= 0 uses GOMAXPROCS.
	Workers int
	// Progress, if non-nil, receives one line as each job starts or is
	// served from the store.
	Progress *Sink
	// Store, if non-nil, is consulted before each job runs (a hit skips
	// the run, across processes) and filled after each successful run.
	// See ResultStore.
	Store ResultStore
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Summary aggregates a batch run's outcome.
type Summary struct {
	Total     int
	Executed  int
	Cached    int
	Failed    int
	Cancelled int
	// FailedJobs lists the failed results (also present in the main
	// slice) so callers can report them without rescanning.
	FailedJobs []Result
}

// Err returns nil when every job produced results, and otherwise an
// error describing the failed and cancelled jobs.
func (s Summary) Err() error {
	if s.Failed == 0 && s.Cancelled == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "batch: %d of %d jobs failed", s.Failed+s.Cancelled, s.Total)
	for i, r := range s.FailedJobs {
		if i == 3 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; job %d (%s): %v", r.Index, r.Tag, r.Err)
	}
	return fmt.Errorf("%s", b.String())
}

// PanicError is a panic captured from a simulation run.
type PanicError struct {
	Value string // the panic value, stringified
	Stack string // the goroutine stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %s", e.Value)
}

// Run executes the jobs across a worker pool and returns one Result per
// job, in job order. A failed or panicking job never stops the others;
// consult the Summary (or each Result.Err) for failures. Cancelling ctx
// stops feeding new jobs; jobs never started carry ctx's error.
func Run(ctx context.Context, jobs []Job, opt Options) ([]Result, Summary) {
	results := make([]Result, len(jobs))
	pending := make([]int, 0, len(jobs))
	sum := Summary{Total: len(jobs)}

	for i, j := range jobs {
		results[i] = Result{Index: i, Tag: j.Tag, Key: Key(j.Cfg)}
		if opt.Store != nil {
			res, ok, err := opt.Store.Get(results[i].Key)
			if err != nil {
				// The store is an optimization; a read error just runs
				// the job.
				opt.Progress.Log("%s: store read: %v", j.Tag, err)
			}
			if ok {
				results[i].Res = res
				results[i].Cached = true
				sum.Cached++
				opt.Progress.Log("%s (cached)", j.Tag)
				continue
			}
		}
		pending = append(pending, i)
	}

	workers := opt.workers()
	if workers > len(pending) {
		workers = len(pending)
	}
	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for _, i := range pending {
			// ctx.Err first: when both select cases are ready the choice
			// is random, and an already-cancelled batch must feed nothing.
			if ctx.Err() != nil {
				return
			}
			select {
			case idxCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//simlint:ctx workers drain idxCh, which the ctx-aware feeder closes on cancellation
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i].Res, results[i].Err = execute(jobs[i].Tag, results[i].Key, jobs[i].Cfg, opt)
			}
		}()
	}
	wg.Wait()

	for _, i := range pending {
		r := &results[i]
		switch {
		case r.Err != nil:
			sum.Failed++
			sum.FailedJobs = append(sum.FailedJobs, *r)
		case r.Res != nil:
			sum.Executed++
		default: // never fed: the context was cancelled first
			r.Err = context.Cause(ctx)
			sum.Cancelled++
			sum.FailedJobs = append(sum.FailedJobs, *r)
		}
	}
	return results, sum
}

// execute runs one config with panic isolation and stores a successful
// result under key.
func execute(tag, key string, cfg scenario.Config, opt Options) (*runner.Results, error) {
	opt.Progress.Log("%s", tag)
	res, err := RunOnce(cfg)
	if err == nil && opt.Store != nil {
		if perr := opt.Store.Put(key, res); perr != nil {
			opt.Progress.Log("%s: store write: %v", tag, perr)
		}
	}
	return res, err
}

// RunOnce executes a single simulation, converting a panic into a
// *PanicError with the captured stack. It neither reads nor writes a
// store: callers that keep results (Run, internal/server) do that
// themselves.
func RunOnce(cfg scenario.Config) (res *runner.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return runner.Run(cfg), nil
}
