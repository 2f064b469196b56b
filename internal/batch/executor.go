package batch

import (
	"context"
	"sync"

	"ecgrid/internal/runner"
	"ecgrid/internal/scenario"
)

// Executor runs configs submitted one at a time, from any goroutine,
// through a shared worker pool. Where Run wants the whole job list up
// front, Executor serves consumers that discover their runs dynamically
// — cmd/repro's claims each request the simulations they need from
// inside their check functions.
//
// Submissions are deduplicated by content key: concurrent and repeated
// submissions of the same canonical config share one execution, and
// completed results (failures included) are cached for the executor's
// lifetime, so an executor suits a bounded job set, not a resident
// service: internal/server keeps its own singleflight and calls RunOnce
// directly. With
// Options.Store set, results are also checked against and written to the
// persistent store, so identical submissions across executor (and
// process) lifetimes run once ever. Panic isolation and the progress
// sink behave exactly as in Run.
type Executor struct {
	ctx context.Context
	opt Options
	sem chan struct{}

	mu    sync.Mutex
	calls map[string]*call
}

// call is one deduplicated execution.
type call struct {
	done chan struct{}
	res  *runner.Results
	err  error
}

// NewExecutor returns an executor whose workers, progress, and store
// come from opt. Cancelling ctx fails pending and future submissions
// with the context's error.
func NewExecutor(ctx context.Context, opt Options) *Executor {
	return &Executor{
		ctx:   ctx,
		opt:   opt,
		sem:   make(chan struct{}, opt.workers()),
		calls: make(map[string]*call),
	}
}

// Run executes cfg (or joins an identical in-flight execution, or
// satisfies it from the result store) and blocks until its results are
// available. It is RunCtx without a per-call context.
func (x *Executor) Run(tag string, cfg scenario.Config) (*runner.Results, error) {
	return x.RunCtx(context.Background(), tag, cfg)
}

// RunCtx is Run with a per-call context: ctx bounds this submission —
// its wait to join an in-flight execution, its wait for a worker slot,
// and (for the submission that ends up owning the execution) the
// decision to start at all. A simulation already running is not
// interrupted: runner.Run has no preemption points, so cancellation
// takes effect at the next wait, and a result computed after the caller
// gave up still lands in the store for whoever asks next.
//
// A call abandoned by its owner *before* executing (per-call or executor
// context cancelled while queued) is removed from the dedup map, so a
// later submission of the same config starts fresh instead of
// inheriting a stale cancellation error. Failures from an actual
// execution stay cached for the executor's lifetime: the simulator is
// deterministic, so re-running the same config would fail identically.
func (x *Executor) RunCtx(ctx context.Context, tag string, cfg scenario.Config) (*runner.Results, error) {
	key := Key(cfg)
	x.mu.Lock()
	if c, ok := x.calls[key]; ok {
		x.mu.Unlock()
		select {
		case <-c.done:
			return c.res, c.err
		case <-x.ctx.Done():
			return nil, context.Cause(x.ctx)
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	c := &call{done: make(chan struct{})}
	x.calls[key] = c
	x.mu.Unlock()

	defer close(c.done)
	// abandon fails the call without poisoning the key: joiners waiting
	// on c.done see the error, but the next submission re-executes.
	abandon := func(err error) (*runner.Results, error) {
		c.err = err
		x.mu.Lock()
		delete(x.calls, key)
		x.mu.Unlock()
		return nil, err
	}

	if x.opt.Store != nil {
		res, ok, err := x.opt.Store.Get(key)
		if err != nil {
			x.opt.Progress.Log("%s: store read: %v", tag, err)
		}
		if ok {
			x.opt.Progress.Log("%s (cached)", tag)
			c.res = res
			return c.res, nil
		}
	}
	// Explicit pre-checks: a select with several cases ready picks
	// randomly, which would let a cancelled executor accept work.
	if x.ctx.Err() != nil {
		return abandon(context.Cause(x.ctx))
	}
	if ctx.Err() != nil {
		return abandon(context.Cause(ctx))
	}
	select {
	case x.sem <- struct{}{}:
	case <-x.ctx.Done():
		return abandon(context.Cause(x.ctx))
	case <-ctx.Done():
		return abandon(context.Cause(ctx))
	}
	defer func() { <-x.sem }()

	c.res, c.err = execute(tag, key, cfg, x.opt)
	return c.res, c.err
}
