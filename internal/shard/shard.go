// Package shard executes one simulation run on several cooperating
// goroutines without giving up the repository's core invariant: every
// run is byte-identical to the single-threaded reference, event for
// event, random draw for random draw.
//
// # Why a conventional parallel DES cannot be byte-identical here
//
// Classic conservative PDES (Chandy–Misra–Bryant) gives each spatial
// partition its own event queue and clock and lets partitions run ahead
// of each other up to a lookahead bound. That design is unavailable
// here for two structural reasons. First, the simulator's random
// streams (radio backoff, election jitter, paging loss…) are shared
// sequences: the value of a draw depends on how many draws preceded it
// across the whole run, so any reordering of events between partitions
// reorders draws and changes every figure downstream. Second, carrier
// sense is instantaneous — a transmission started this very instant
// anywhere within range must be visible to a host's next medium probe —
// which makes the honest cross-partition lookahead zero exactly where
// the traffic is.
//
// # The windowed advance/commit design
//
// So the engine stays serial and the parallelism moves to the pure part
// of the workload. Time is cut into fixed windows. Each window runs two
// phases:
//
//   - advance (parallel): one worker per shard materializes the mobility
//     history of the hosts it owns out to the window end plus the
//     lookahead margin. Mobility models are per-host lazy generators
//     that keep their full leg history, so materializing early is
//     byte-identical to materializing on demand — the draws come from
//     each host's private stream either way.
//   - commit (serial): the event engine runs the window's events in
//     exact (when, seq) order on one goroutine, exactly as the
//     reference does. Position reads inside events become pure lookups
//     into history the advance phase already wrote.
//
// At each window boundary the plan re-homes hosts to the strip of their
// current column; each transfer is a boundary event (counted in
// Stats.BoundaryEvents). The lookahead margin guarantees a handed-off
// host's mobility is already materialized past every in-flight
// physical-layer event that could touch it, so no worker ever reads
// state another worker is still writing; the per-window audit
// (StreamShardAudit) spot-checks that invariant on live runs.
//
// Ownership is what makes the parallel phases race-free: every host
// belongs to exactly one shard, only its owner's worker touches its
// mobility state, and hosts sharing a group-mobility reference point
// are pinned to one owner so the shared reference has a single writer.
package shard

import (
	"fmt"

	"ecgrid/internal/geom"
	"ecgrid/internal/grid"
)

// Plan is the ownership map of one sharded run: which column strip of
// grid cells each shard covers, and which shard currently owns each
// host. Strips are contiguous runs of whole grid columns, balanced by
// initial host count, so the shard of a position is one array lookup
// away from its cell coordinate.
type Plan struct {
	part     *grid.Partition
	k        int
	colShard []int // grid column -> shard
	owner    []int // host index -> owning shard
	group    []int // host index -> group id, -1 when ungrouped
	leader   []int // host index -> lowest-index member of its group (itself when ungrouped)
	members  map[int][]int
	lists    [][]int // shard -> owned host indices, ascending

	// OnHandoff, when non-nil, observes every ownership transfer made by
	// Rebalance: host moved from shard `from` to shard `to`. Tests use it
	// to assert the conservative-synchronization contract on real runs.
	OnHandoff func(host, from, to int)
}

// NewPlan partitions the grid's columns into k contiguous strips,
// balancing by the hosts' starting positions, and assigns each host to
// the strip containing its start. groups pins co-movement: hosts with
// the same non-negative groups entry share mutable mobility state (a
// group reference point) and are therefore always owned — and handed
// off — as a unit. Pass nil for groups when no hosts are grouped.
func NewPlan(part *grid.Partition, k int, starts []geom.Point, groups []int) *Plan {
	cols := part.Cols()
	if k < 1 || k > cols {
		panic(fmt.Sprintf("shard: %d shards over a %d-column grid", k, cols))
	}
	if groups != nil && len(groups) != len(starts) {
		panic("shard: groups and starts length mismatch")
	}
	p := &Plan{
		part:     part,
		k:        k,
		colShard: make([]int, cols),
		owner:    make([]int, len(starts)),
		group:    make([]int, len(starts)),
		leader:   make([]int, len(starts)),
		members:  make(map[int][]int),
		lists:    make([][]int, k),
	}

	// Strip boundaries: walk columns left to right, closing strip s once
	// its cumulative host count reaches the s-th fraction of the total.
	// A strip never closes while empty (clustered deployments leave runs
	// of bare columns between the mass) unless the remaining strips need
	// every remaining column.
	colCount := make([]int, cols)
	for _, pt := range starts {
		colCount[part.CellOf(pt).X]++
	}
	total := len(starts)
	cum, s, stripStart := 0, 0, 0
	for col := 0; col < cols; col++ {
		p.colShard[col] = s
		cum += colCount[col]
		left := k - 1 - s
		if left == 0 {
			continue
		}
		if (cum*k >= (s+1)*total && cum > stripStart) || cols-1-col == left {
			s++
			stripStart = cum
		}
	}

	for i := range starts {
		p.owner[i] = p.colShard[part.CellOf(starts[i]).X]
		p.group[i] = -1
		p.leader[i] = i
		if groups != nil && groups[i] >= 0 {
			p.group[i] = groups[i]
			if m := p.members[groups[i]]; len(m) > 0 {
				p.leader[i] = m[0]
			}
			p.members[groups[i]] = append(p.members[groups[i]], i)
		}
	}
	// Pin every group to its leader's strip so the shared reference
	// point has exactly one writer.
	for i := range starts {
		p.owner[i] = p.owner[p.leader[i]]
	}
	p.rebuildLists()
	return p
}

// K returns the number of shards.
func (p *Plan) K() int { return p.k }

// Owner returns the shard currently owning host i.
func (p *Plan) Owner(i int) int { return p.owner[i] }

// List returns the host indices shard s currently owns, in ascending
// order. The slice is owned by the plan; do not mutate it.
func (p *Plan) List(s int) []int { return p.lists[s] }

// ShardOf returns the shard whose strip contains the point.
func (p *Plan) ShardOf(pt geom.Point) int {
	return p.colShard[p.part.CellOf(pt).X]
}

// Rebalance re-homes each host to the strip of its current position
// (grouped hosts follow their leader, so a group always moves whole)
// and returns the number of ownership transfers — the run's boundary
// events. pos must return host i's position at the current boundary.
func (p *Plan) Rebalance(pos func(i int) geom.Point) int {
	moved := 0
	for i := range p.owner {
		if p.leader[i] != i {
			continue // followers are re-homed with their leader below
		}
		dst := p.colShard[p.part.CellOf(pos(i)).X]
		if dst == p.owner[i] {
			continue
		}
		if g := p.group[i]; g >= 0 {
			for _, j := range p.members[g] {
				p.handoff(j, dst)
				moved++
			}
		} else {
			p.handoff(i, dst)
			moved++
		}
	}
	if moved > 0 {
		p.rebuildLists()
	}
	return moved
}

func (p *Plan) handoff(i, dst int) {
	if p.OnHandoff != nil {
		p.OnHandoff(i, p.owner[i], dst)
	}
	p.owner[i] = dst
}

// rebuildLists refreshes the per-shard ownership lists. Host indices
// ascend within each list because the single pass visits them in order.
func (p *Plan) rebuildLists() {
	for s := range p.lists {
		p.lists[s] = p.lists[s][:0]
	}
	for i, s := range p.owner {
		p.lists[s] = append(p.lists[s], i)
	}
}
