package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, -2}

	if got := p.Add(q); got != (Point{4, 2}) {
		t.Errorf("Add = %v, want (4,2)", got)
	}
	if got := p.Sub(q); got != (Point{2, 6}) {
		t.Errorf("Sub = %v, want (2,6)", got)
	}
	if got := p.Scale(2); got != (Point{6, 8}) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v, want -5", got)
	}
	if got := p.Cross(q); got != -6-4 {
		t.Errorf("Cross = %v, want -10", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := p.Dist(Point{0, 0}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := p.Dist2(Point{0, 0}); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestPointEq(t *testing.T) {
	p := Point{1, 1}
	if !p.eq(Point{1 + Eps/2, 1 - Eps/2}) {
		t.Error("points within Eps should be equal")
	}
	if p.eq(Point{1.1, 1}) {
		t.Error("distinct points should not be equal")
	}
}

func TestSegmentLengthMidpoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{6, 8}}
	if got := s.Length(); got != 10 {
		t.Errorf("Length = %v, want 10", got)
	}
	if got := s.Midpoint(); got != (Point{3, 4}) {
		t.Errorf("Midpoint = %v, want (3,4)", got)
	}
}

func TestCrossesProper(t *testing.T) {
	// Classic X crossing.
	s := Segment{Point{0, 0}, Point{10, 10}}
	u := Segment{Point{0, 10}, Point{10, 0}}
	if !s.Crosses(u) || !u.Crosses(s) {
		t.Error("X-shaped segments must cross (symmetrically)")
	}
}

func TestCrossesDisjoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 1}}
	u := Segment{Point{5, 5}, Point{6, 6}}
	if s.Crosses(u) {
		t.Error("far-apart segments must not cross")
	}
	// Parallel, close but disjoint.
	v := Segment{Point{0, 1}, Point{1, 2}}
	if s.Crosses(v) {
		t.Error("parallel disjoint segments must not cross")
	}
}

func TestCrossesSharedEndpoint(t *testing.T) {
	// Two links meeting at a router never "cross".
	s := Segment{Point{0, 0}, Point{10, 0}}
	u := Segment{Point{0, 0}, Point{0, 10}}
	if s.Crosses(u) {
		t.Error("segments sharing an endpoint must not cross")
	}
	// Even collinear continuation at a shared endpoint.
	v := Segment{Point{10, 0}, Point{20, 0}}
	if s.Crosses(v) {
		t.Error("collinear continuation sharing an endpoint must not cross")
	}
}

func TestCrossesTContact(t *testing.T) {
	// Endpoint of one segment in the interior of the other: counts as a
	// crossing (the contact point is not a shared endpoint).
	s := Segment{Point{0, 0}, Point{10, 0}}
	u := Segment{Point{5, 0}, Point{5, 7}}
	if !s.Crosses(u) || !u.Crosses(s) {
		t.Error("T-contact must count as crossing")
	}
}

func TestCrossesCollinearOverlap(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	u := Segment{Point{5, 0}, Point{15, 0}}
	if !s.Crosses(u) {
		t.Error("collinear overlapping segments must cross")
	}
}

func TestCrossesSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		p := func() Point { return Point{rng.Float64() * 100, rng.Float64() * 100} }
		s := Segment{p(), p()}
		u := Segment{p(), p()}
		return s.Crosses(u) == u.Crosses(s)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistToPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},  // projects inside
		{Point{-4, 3}, 5}, // projects before A
		{Point{14, 3}, 5}, // projects after B
		{Point{7, 0}, 0},  // on the segment
		{Point{10, 0}, 0}, // at endpoint
		{Point{0, -2.5}, 2.5},
	}
	for _, c := range cases {
		if got := s.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestDistToPointDegenerate(t *testing.T) {
	s := Segment{Point{2, 2}, Point{2, 2}}
	if got := s.DistToPoint(Point{5, 6}); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate DistToPoint = %v, want 5", got)
	}
}

func TestDiskContains(t *testing.T) {
	d := Disk{Point{0, 0}, 10}
	if !d.Contains(Point{3, 3}) {
		t.Error("interior point must be contained")
	}
	if d.Contains(Point{10, 0}) {
		t.Error("boundary point must not be contained (strict interior)")
	}
	if d.Contains(Point{11, 0}) {
		t.Error("exterior point must not be contained")
	}
}

func TestDiskIntersectsSegment(t *testing.T) {
	d := Disk{Point{0, 0}, 5}
	if !d.IntersectsSegment(Segment{Point{-10, 0}, Point{10, 0}}) {
		t.Error("chord through the center must intersect")
	}
	if !d.IntersectsSegment(Segment{Point{-10, 3}, Point{10, 3}}) {
		t.Error("chord through the interior must intersect")
	}
	if d.IntersectsSegment(Segment{Point{-10, 5}, Point{10, 5}}) {
		t.Error("tangent segment must not intersect (strict)")
	}
	if d.IntersectsSegment(Segment{Point{-10, 8}, Point{10, 8}}) {
		t.Error("distant segment must not intersect")
	}
	if !d.IntersectsSegment(Segment{Point{1, 1}, Point{2, 2}}) {
		t.Error("segment fully inside must intersect")
	}
}

func TestDiskArea(t *testing.T) {
	d := Disk{Point{0, 0}, 2}
	if got := d.Area(); math.Abs(got-4*math.Pi) > 1e-12 {
		t.Errorf("Area = %v, want 4π", got)
	}
}

func TestCCWAngleQuadrants(t *testing.T) {
	east := Point{1, 0}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{0, 1}, math.Pi / 2},      // north is a quarter turn CCW
		{Point{-1, 0}, math.Pi},         // west is a half turn
		{Point{0, -1}, 3 * math.Pi / 2}, // south is three quarters
		{Point{1, 0}, 2 * math.Pi},      // zero rotation reported as full turn
	}
	for _, c := range cases {
		if got := CCWAngle(east, c.to); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CCWAngle(east, %v) = %v, want %v", c.to, got, c.want)
		}
	}
}

func TestCCWAngleRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		from := Point{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		to := Point{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		if from.Norm() < 1e-3 || to.Norm() < 1e-3 {
			return true // skip near-degenerate directions
		}
		a := CCWAngle(from, to)
		return a > 0 && a <= 2*math.Pi+Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// SweepOrder reports whether, sweeping counterclockwise starting from
// the reference direction ref (anchored at origin o), the direction to
// point p is reached strictly before the direction to point q.
// Ties (collinear candidates) are broken by distance from o, nearer
// first, so the sweep order is total for distinct points. Angles
// within Eps count as ties here; phase 1's sweep table (package core)
// compares the same keys exactly.
func SweepOrder(o, ref, p, q Point) bool {
	base := ref.Sub(o)
	ap := CCWAngle(base, p.Sub(o))
	aq := CCWAngle(base, q.Sub(o))
	if math.Abs(ap-aq) > Eps {
		return ap < aq
	}
	return o.Dist2(p) < o.Dist2(q)
}

func TestSweepOrder(t *testing.T) {
	o := Point{0, 0}
	ref := Point{1, 0} // sweeping line points east
	north := Point{0, 1}
	west := Point{-1, 0}
	south := Point{0, -1}

	if !SweepOrder(o, ref, north, west) {
		t.Error("north must come before west in CCW sweep from east")
	}
	if !SweepOrder(o, ref, west, south) {
		t.Error("west must come before south")
	}
	if SweepOrder(o, ref, south, north) {
		t.Error("south must not come before north")
	}
	// The reference direction itself is the last candidate (angle 2π).
	if SweepOrder(o, ref, ref, north) {
		t.Error("reference direction must sort last, not first")
	}
}

func TestSweepOrderTieBreakByDistance(t *testing.T) {
	o := Point{0, 0}
	ref := Point{1, 0}
	near := Point{0, 2}
	far := Point{0, 5} // same direction as near
	if !SweepOrder(o, ref, near, far) {
		t.Error("collinear candidates must order nearer-first")
	}
	if SweepOrder(o, ref, far, near) {
		t.Error("tie-break must be asymmetric")
	}
}

func TestStringers(t *testing.T) {
	if s := (Point{1, 2}).String(); s == "" {
		t.Error("Point.String must be non-empty")
	}
	if s := (Segment{Point{0, 0}, Point{1, 1}}).String(); s == "" {
		t.Error("Segment.String must be non-empty")
	}
	if s := (Disk{Point{0, 0}, 1}).String(); s == "" {
		t.Error("Disk.String must be non-empty")
	}
}

// Area returns the area of the disk.
func (d Disk) Area() float64 { return math.Pi * d.Radius * d.Radius }
