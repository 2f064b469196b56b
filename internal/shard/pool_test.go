package shard

import (
	"testing"

	"ecgrid/internal/geom"
	"ecgrid/internal/hostid"
)

// fakeNode is a scriptable Node: position is a linear trajectory so the
// coordinator tests can drive hosts across strip boundaries.
type fakeNode struct {
	id       hostid.ID
	start    geom.Point
	vx       float64
	clock    func() float64 // Position evaluates the trajectory here
	dead     bool
	advanced float64
}

func (f *fakeNode) ID() hostid.ID { return f.id }
func (f *fakeNode) Dead() bool    { return f.dead }
func (f *fakeNode) at(t float64) geom.Point {
	return geom.Point{X: f.start.X + f.vx*t, Y: f.start.Y}
}
func (f *fakeNode) Position() geom.Point {
	t := 0.0
	if f.clock != nil {
		t = f.clock()
	}
	return f.at(t)
}
func (f *fakeNode) AdvanceMobility(t float64) {
	if t > f.advanced {
		f.advanced = t
	}
}

func makeFakes(starts []geom.Point) ([]*fakeNode, []Node) {
	fakes := make([]*fakeNode, len(starts))
	nodes := make([]Node, len(starts))
	for i, s := range starts {
		fakes[i] = &fakeNode{id: hostid.ID(i), start: s}
		nodes[i] = fakes[i]
	}
	return fakes, nodes
}

func TestPoolAdvanceReachesEveryLiveHost(t *testing.T) {
	part := testPartition(1000, 100)
	starts := uniformStarts(23, 1000)
	for _, helpers := range []int{0, 3} {
		fakes, nodes := makeFakes(starts)
		fakes[5].dead = true
		pool := NewPool(NewPlan(part, 4, starts, nil), nodes, helpers)
		pool.Advance(17.5)
		for i, f := range fakes {
			want := 17.5
			if f.dead {
				want = 0
			}
			if f.advanced != want {
				t.Errorf("helpers=%d host %d advanced to %g, want %g", helpers, i, f.advanced, want)
			}
		}
		for s := 0; s < 4; s++ {
			if pool.AdvancedTo(s) != 17.5 {
				t.Errorf("helpers=%d shard %d horizon %g", helpers, s, pool.AdvancedTo(s))
			}
		}
		pool.Close()
	}
}

func TestPoolHelperClamp(t *testing.T) {
	part := testPartition(1000, 100)
	starts := uniformStarts(8, 1000)
	_, nodes := makeFakes(starts)
	// More helpers than shards-1: the pool must clamp, not leak
	// goroutines that would never receive work.
	pool := NewPool(NewPlan(part, 2, starts, nil), nodes, 16)
	pool.Advance(1)
	pool.Close() // hangs if a helper is stuck
}
