package shard

import (
	"fmt"

	"ecgrid/internal/radio"
	"ecgrid/internal/sim"
)

// DefaultWindow is the synchronization window in simulated seconds: the
// cadence of the advance/commit cycle and of ownership rebalancing. One
// second is hundreds of times the physical-layer lookahead and small
// against mobility timescales, so windows are long enough to amortize
// the phase barrier and short enough that strips track the hosts.
const DefaultWindow = 1.0

// LookaheadFor derives the conservative lookahead margin from the
// physical layer: the longest interval an event already committed can
// project into the future through in-flight channel or paging activity.
// That is a maximal medium-access delay (DIFS plus a full contention
// window of backoff slots), the on-air interval of the largest frame
// (serialization plus propagation, radio.Config.OnAirInterval), and the
// RAS page-to-wake latency. Hosts are always materialized this far past
// the window end, so a host handed between shards at a boundary has its
// state finalized beyond every event the old window can still land on
// it. The windowed design is safe for any margin ≥ 0 — the margin is
// what keeps handoffs conservative, and the per-window audit checks it.
func LookaheadFor(rc radio.Config, maxFrameBytes int, pagingLatency float64) float64 {
	access := rc.DIFS + float64(rc.MaxBackoffSlots)*rc.SlotTime
	return access + rc.OnAirInterval(maxFrameBytes) + pagingLatency
}

// Stats reports how a sharded run executed. Pure telemetry: none of it
// feeds back into the simulation.
type Stats struct {
	// Shards and Workers record the plan width and how many goroutines
	// actually ran it (helpers + the commit goroutine).
	Shards  int
	Workers int
	// Windows counts advance/commit cycles.
	Windows uint64
	// BoundaryEvents counts host ownership handoffs between shards at
	// window boundaries.
	BoundaryEvents uint64
	// StallNS is the cumulative wall-clock time the commit goroutine
	// spent blocked at phase barriers waiting for straggler workers.
	StallNS int64
	// Audited counts per-window invariant spot-checks that passed (a
	// failed check panics: it means the conservative contract broke).
	Audited uint64
}

// Coordinator drives one sharded run: the windowed advance/commit loop
// described in the package comment.
type Coordinator struct {
	engine    *sim.Engine
	pool      *Pool
	window    float64
	lookahead float64
	rng       *sim.RNG // audit sampling; nil disables the audit

	// auditStreams[s] is the shard's audit RNG stream name, formatted
	// once here: the audit runs every window, and a Sprintf per shard per
	// window is an allocation the steady state must not make.
	auditStreams []string

	stats Stats
}

// NewCoordinator wires a coordinator over an engine and a pool. window
// and lookahead are in simulated seconds (DefaultWindow / LookaheadFor
// are the standard choices). rng, when non-nil, enables the per-window
// sampling audit on the StreamShardAudit streams; the draws feed no
// simulation decision, so runs are byte-identical with auditing on or
// off.
func NewCoordinator(engine *sim.Engine, pool *Pool, window, lookahead float64, rng *sim.RNG) *Coordinator {
	if window <= 0 || lookahead < 0 {
		panic(fmt.Sprintf("shard: invalid window %v or lookahead %v", window, lookahead))
	}
	c := &Coordinator{engine: engine, pool: pool, window: window, lookahead: lookahead, rng: rng}
	c.stats.Shards = pool.plan.k
	c.stats.Workers = 1 + pool.helpers
	if rng != nil {
		c.auditStreams = make([]string, pool.plan.k)
		for s := range c.auditStreams {
			c.auditStreams[s] = fmt.Sprintf(sim.StreamShardAudit, s)
		}
	}
	return c
}

// Run executes the simulation to the horizon and returns the final
// clock value, exactly like Engine.Run — the event order, and therefore
// every metric and trace byte, matches a single Engine.Run(until) call.
func (c *Coordinator) Run(until float64) float64 {
	for t := c.engine.Now(); t < until; {
		next := t + c.window
		if next > until {
			next = until
		}
		c.pool.Advance(next + c.lookahead)
		c.audit(next + c.lookahead)
		c.engine.Run(next)
		c.stats.Windows++
		if c.engine.Stopped() {
			break
		}
		if next < until {
			c.stats.BoundaryEvents += uint64(c.pool.Rebalance())
		}
		t = next
	}
	c.stats.StallNS = c.pool.StallNS()
	return c.engine.Now()
}

// Stats returns the run's execution telemetry. Valid after Run.
func (c *Coordinator) Stats() Stats { return c.stats }

// audit spot-checks the conservative contract each window: one sampled
// host per shard must be owned by the shard whose list it sits on, must
// be co-owned with its whole group, and its shard must have advanced to
// the safe horizon. Violations panic — they mean a data race on
// mobility state is possible and every result after this point is
// suspect.
func (c *Coordinator) audit(horizon float64) {
	if c.rng == nil {
		return
	}
	plan := c.pool.plan
	for s := 0; s < plan.k; s++ {
		list := plan.lists[s]
		if len(list) == 0 {
			continue
		}
		//simlint:stream auditStreams[s] is fmt.Sprintf(sim.StreamShardAudit, s), hoisted out of the window loop
		i := list[c.rng.Intn(c.auditStreams[s], len(list))]
		if plan.owner[i] != s {
			panic(fmt.Sprintf("shard: audit: host %d on shard %d's list but owned by %d", i, s, plan.owner[i]))
		}
		if g := plan.group[i]; g >= 0 {
			for _, j := range plan.members[g] {
				if plan.owner[j] != plan.owner[i] {
					panic(fmt.Sprintf("shard: audit: group %d split across shards %d and %d", g, plan.owner[i], plan.owner[j]))
				}
			}
		}
		if got := c.pool.advancedTo[s]; got < horizon {
			panic(fmt.Sprintf("shard: audit: shard %d advanced to %g, safe horizon %g", s, got, horizon))
		}
		c.stats.Audited++
	}
}
