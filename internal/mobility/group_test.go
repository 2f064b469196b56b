package mobility

import (
	"math"
	"math/rand"
	"testing"

	"ecgrid/internal/geom"
)

func newGroup(seed int64) (*GroupReference, []*GroupMember) {
	const radius = 80.0
	rng := rand.New(rand.NewSource(seed))
	ref := NewGroupReference(testArea(), geom.Point{X: 300, Y: 640}, radius, 10, 2, rng)
	members := make([]*GroupMember, 4)
	for i := range members {
		members[i] = NewGroupMember(ref, radius, 2, 0.5, rand.New(rand.NewSource(seed+int64(i)+1)))
	}
	return ref, members
}

// TestGroupMemberStaysNearReference: every member stays within the
// offset radius of the shared reference point, and therefore inside the
// full area (the reference runs over the inset).
func TestGroupMemberStaysNearReference(t *testing.T) {
	ref, members := newGroup(9)
	area := testArea()
	for u := 0.0; u < 800; u += 0.53 {
		rp := ref.rwp.Position(u)
		for i, m := range members {
			p := m.Position(u)
			if d := p.Dist(rp); d > 80*math.Sqrt2+1e-6 {
				t.Fatalf("t=%v: member %d strayed %v m from the reference", u, i, d)
			}
			if !area.Contains(p) {
				t.Fatalf("t=%v: member %d outside the area at %v", u, i, p)
			}
		}
	}
}

// TestGroupMembersCohere: distinct members of one group do not collapse
// onto a single trajectory (each has private local motion), yet move
// together: the spread between members is bounded by twice the radius
// box diagonal.
func TestGroupMembersCohere(t *testing.T) {
	_, members := newGroup(31)
	distinct := false
	for u := 10.0; u < 400; u += 10 {
		a := members[0].Position(u)
		b := members[1].Position(u)
		if a.Dist(b) > 1 {
			distinct = true
		}
		if d := a.Dist(b); d > 2*80*math.Sqrt2+1e-6 {
			t.Fatalf("t=%v: members %v apart, beyond the group diameter", u, d)
		}
	}
	if !distinct {
		t.Fatal("members never separated: local motion is not private")
	}
}

// TestGroupMemberVelocityIsDerivative checks the Model consistency
// contract numerically: the position moves by roughly velocity·dt over
// a small dt away from knots.
func TestGroupMemberVelocityIsDerivative(t *testing.T) {
	_, members := newGroup(5)
	m := members[2]
	const dt = 1e-5
	for u := 0.5; u < 200; u += 3.1 {
		// Skip samples too close to a knot for a one-sided difference.
		if m.NextTurn(u)-u < 2*dt {
			continue
		}
		v := m.Velocity(u)
		p0, p1 := m.Position(u), m.Position(u+dt)
		gotDX := (p1.X - p0.X) / dt
		gotDY := (p1.Y - p0.Y) / dt
		if math.Abs(gotDX-v.DX) > 1e-3 || math.Abs(gotDY-v.DY) > 1e-3 {
			t.Fatalf("t=%v: velocity %v but finite difference (%v, %v)", u, v, gotDX, gotDY)
		}
	}
}
