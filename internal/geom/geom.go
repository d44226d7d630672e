// Package geom provides the planar-geometry primitives that RTR's
// first phase depends on: points, segments, disks, proper segment
// crossing tests, segment–disk intersection, and the counterclockwise
// angular sweep used by the right-hand forwarding rule.
//
// All predicates use a small absolute epsilon so that randomly embedded
// topologies behave robustly; the simulator never places nodes closer
// than the epsilon scale to one another.
package geom

import (
	"fmt"
	"math"
)

// Eps is the absolute tolerance used by the geometric predicates.
// Coordinates in this repository live in a 2000x2000 area, so 1e-9 is
// far below any meaningful feature size.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y)
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k about the origin.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q viewed
// as vectors. It is positive when q lies counterclockwise of p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	d := p.Sub(q)
	return d.Dot(d)
}

// eq reports whether p and q coincide within Eps.
func (p Point) eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Segment is the closed straight segment between two points. Links in
// the simulated network are drawn as straight segments between router
// coordinates.
type Segment struct {
	A, B Point
}

// String implements fmt.Stringer.
func (s Segment) String() string {
	return fmt.Sprintf("[%v - %v]", s.A, s.B)
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// orientation classifies point r relative to the directed line a->b:
// +1 counterclockwise (left), -1 clockwise (right), 0 collinear.
func orientation(a, b, r Point) int {
	v := b.Sub(a).Cross(r.Sub(a))
	switch {
	case v > Eps:
		return 1
	case v < -Eps:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether collinear point r lies on segment [a,b].
func onSegment(a, b, r Point) bool {
	return math.Min(a.X, b.X)-Eps <= r.X && r.X <= math.Max(a.X, b.X)+Eps &&
		math.Min(a.Y, b.Y)-Eps <= r.Y && r.Y <= math.Max(a.Y, b.Y)+Eps
}

// sharesEndpoint reports whether the two segments share an endpoint
// (within Eps). Links incident to a common router share an endpoint and
// are never considered to cross each other.
func (s Segment) sharesEndpoint(t Segment) bool {
	return s.A.eq(t.A) || s.A.eq(t.B) || s.B.eq(t.A) || s.B.eq(t.B)
}

// Crosses reports whether segments s and t cross, i.e. intersect at a
// point that is not a shared endpoint. This is the notion of "link A is
// across link B" used by RTR's cross_link constraint: two links that
// merely meet at a common router do not cross.
func (s Segment) Crosses(t Segment) bool {
	if s.sharesEndpoint(t) {
		return false
	}
	o1 := orientation(s.A, s.B, t.A)
	o2 := orientation(s.A, s.B, t.B)
	o3 := orientation(t.A, t.B, s.A)
	o4 := orientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		return true // proper crossing
	}
	// Degenerate contacts: an endpoint of one segment lying in the
	// interior of the other, or collinear overlap. These still count as
	// crossings because the intersection point is not a shared endpoint.
	if o1 == 0 && onSegment(s.A, s.B, t.A) {
		return true
	}
	if o2 == 0 && onSegment(s.A, s.B, t.B) {
		return true
	}
	if o3 == 0 && onSegment(t.A, t.B, s.A) {
		return true
	}
	if o4 == 0 && onSegment(t.A, t.B, s.B) {
		return true
	}
	return false
}

// DistToSegment returns the minimum distance between the two closed
// segments: zero when they intersect (including shared endpoints and
// collinear overlap), otherwise the smallest of the four
// endpoint-to-segment distances — for non-intersecting segments the
// closest pair of points always involves at least one endpoint.
func (s Segment) DistToSegment(t Segment) float64 {
	o1 := orientation(s.A, s.B, t.A)
	o2 := orientation(s.A, s.B, t.B)
	o3 := orientation(t.A, t.B, s.A)
	o4 := orientation(t.A, t.B, s.B)
	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		return 0 // proper interior crossing
	}
	// Degenerate contacts (endpoint on the other segment, collinear
	// overlap) reduce to an endpoint distance of zero below.
	d := s.DistToPoint(t.A)
	if v := s.DistToPoint(t.B); v < d {
		d = v
	}
	if v := t.DistToPoint(s.A); v < d {
		d = v
	}
	if v := t.DistToPoint(s.B); v < d {
		d = v
	}
	return d
}

// DistToPoint returns the minimum distance from point p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	ab := s.B.Sub(s.A)
	ap := p.Sub(s.A)
	den := ab.Dot(ab)
	if den <= Eps {
		return p.Dist(s.A) // degenerate segment
	}
	t := ap.Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := s.A.Add(ab.Scale(t))
	return p.Dist(closest)
}

// Disk is a closed disk: the failure areas in the paper's evaluation
// are disks with random center and radius.
type Disk struct {
	Center Point
	Radius float64
}

// String implements fmt.Stringer.
func (d Disk) String() string {
	return fmt.Sprintf("disk(center=%v, r=%.3f)", d.Center, d.Radius)
}

// Contains reports whether point p lies strictly inside the disk.
// Routers exactly on the boundary survive; this matches the paper's
// "nodes within the circle fail".
func (d Disk) Contains(p Point) bool {
	return d.Center.Dist2(p) < d.Radius*d.Radius-Eps
}

// IntersectsSegment reports whether the segment passes through the disk
// (its minimum distance to the center is below the radius). Links
// across the failure area fail even when both endpoints survive.
func (d Disk) IntersectsSegment(s Segment) bool {
	return s.DistToPoint(d.Center) < d.Radius-Eps
}

// Capsule is the set of points within Radius of a spine segment — a
// stadium shape. It models line/conduit cuts: a trench, pipeline, or
// border strip of width 2*Radius failing everything it touches. The
// containment and intersection predicates mirror Disk's strict-inside
// convention (boundary points survive); a Capsule with a degenerate
// spine (Seg.A == Seg.B) behaves like a Disk away from the boundary.
type Capsule struct {
	Seg    Segment
	Radius float64
}

// String implements fmt.Stringer.
func (c Capsule) String() string {
	return fmt.Sprintf("capsule(%v, r=%.3f)", c.Seg, c.Radius)
}

// Contains reports whether point p lies strictly inside the capsule.
func (c Capsule) Contains(p Point) bool {
	return c.Seg.DistToPoint(p) < c.Radius-Eps
}

// IntersectsSegment reports whether the segment passes through the
// capsule's interior (its minimum distance to the spine is below the
// radius).
func (c Capsule) IntersectsSegment(s Segment) bool {
	return c.Seg.DistToSegment(s) < c.Radius-Eps
}

// CCWAngle returns the counterclockwise rotation, in radians in the
// half-open interval (0, 2π], needed to rotate the direction vector
// `from` onto the direction vector `to`, both anchored at the same
// origin. A rotation of exactly zero is reported as 2π: the right-hand
// rule must be able to come back to the incoming edge only after a full
// sweep, so the previous hop is the last candidate considered, never
// the first.
func CCWAngle(from, to Point) float64 {
	a := math.Atan2(from.Cross(to), from.Dot(to))
	if a <= Eps {
		a += 2 * math.Pi
	}
	return a
}
