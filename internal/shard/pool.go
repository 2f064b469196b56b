package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
)

// Node is the per-host surface the pool needs: identity, liveness, the
// memoized current position (for rebalancing), and the ability to
// materialize mobility history ahead of time. internal/node's Host
// implements it.
type Node interface {
	ID() hostid.ID
	Dead() bool
	Position() geom.Point
	AdvanceMobility(t float64)
}

// Pool runs the parallel phase of a sharded run: the per-window
// mobility advance. It owns a fixed
// set of helper goroutines; the caller's goroutine always participates
// too, so a pool with zero helpers degrades to a plain serial loop.
//
// Every parallel phase partitions its work by the plan's ownership
// lists — worker w touches only hosts owned by the shards it picks up —
// so results are a pure function of the plan and never of how many
// helpers happen to be available.
type Pool struct {
	plan  *Plan
	nodes []Node

	jobs    chan poolJob   // nil when the pool has no helpers
	helpers int            // goroutines beyond the caller's own
	wg      sync.WaitGroup // helper lifetime
	barrier sync.WaitGroup // run's per-phase barrier, reused across phases

	// Advance runs every window, so its per-shard closure is built once
	// here and parameterized through advTo — a fresh capturing closure
	// per call would escape into the jobs channel and allocate in the
	// steady state. advTo is written before run dispatches and only read
	// by workers, so the channel send orders the accesses.
	advanceFn func(s int)
	advTo     float64

	// advancedTo[s] is the horizon shard s's mobility has been
	// materialized to — written only by the worker running shard s's
	// advance, read between phases by the audit.
	advancedTo []float64

	stallNS atomic.Int64
}

type poolJob struct {
	fn func(s int)
	s  int
	wg *sync.WaitGroup
}

// NewPool builds a pool over the plan's shards with the given number of
// helper goroutines (clamped to shards-1: the caller works too, and
// more workers than shards would idle). Close releases the helpers.
func NewPool(plan *Plan, nodes []Node, helpers int) *Pool {
	p := &Pool{
		plan:       plan,
		nodes:      nodes,
		advancedTo: make([]float64, plan.k),
	}
	p.advanceFn = p.advanceShard
	if helpers > plan.k-1 {
		helpers = plan.k - 1
	}
	if helpers < 0 {
		helpers = 0
	}
	p.helpers = helpers
	if helpers > 0 {
		p.jobs = make(chan poolJob, plan.k)
		p.wg.Add(helpers)
		for w := 0; w < helpers; w++ {
			go func() {
				defer p.wg.Done()
				for j := range p.jobs {
					j.fn(j.s)
					j.wg.Done()
				}
			}()
		}
	}
	return p
}

// Close shuts the helper goroutines down. The pool must be idle.
func (p *Pool) Close() {
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
		p.jobs = nil
	}
}

// run executes fn(s) for every shard, distributing shards across the
// helpers; the caller's goroutine handles shard 0 (and anything the
// helpers have not claimed by the time it finishes). Time the caller
// then spends blocked on the stragglers is the run's stall time.
func (p *Pool) run(fn func(s int)) {
	if p.jobs == nil {
		for s := 0; s < p.plan.k; s++ {
			fn(s)
		}
		return
	}
	p.barrier.Add(p.plan.k)
	for s := 1; s < p.plan.k; s++ {
		p.jobs <- poolJob{fn, s, &p.barrier}
	}
	fn(0)
	p.barrier.Done()
	start := time.Now() //simlint:walltime — stall telemetry only, never simulation state
	p.barrier.Wait()
	p.stallNS.Add(time.Since(start).Nanoseconds()) //simlint:walltime — stall telemetry only
}

// Advance materializes every live host's mobility history out to time
// to, each shard's hosts on that shard's worker. Dead hosts are skipped:
// their radios are detached, so nothing will read their position again.
func (p *Pool) Advance(to float64) {
	p.advTo = to
	p.run(p.advanceFn)
}

// advanceShard is Advance's per-shard body (p.advanceFn), parameterized
// by p.advTo.
func (p *Pool) advanceShard(s int) {
	to := p.advTo
	for _, i := range p.plan.lists[s] {
		if n := p.nodes[i]; !n.Dead() {
			n.AdvanceMobility(to)
		}
	}
	p.advancedTo[s] = to
}

// Rebalance re-homes ownership to the hosts' current positions and
// returns the number of handoffs (boundary events).
func (p *Pool) Rebalance() int {
	return p.plan.Rebalance(func(i int) geom.Point { return p.nodes[i].Position() })
}

// StallNS returns the cumulative time the commit goroutine has spent
// blocked at phase barriers waiting for straggler workers.
func (p *Pool) StallNS() int64 { return p.stallNS.Load() }

// AdvancedTo returns the mobility horizon of shard s, for the audit and
// the conservativeness tests.
func (p *Pool) AdvancedTo(s int) float64 { return p.advancedTo[s] }
