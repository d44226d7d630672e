package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestDistToSegment(t *testing.T) {
	cases := []struct {
		name string
		s, u Segment
		want float64
	}{
		{"proper crossing", Segment{Point{0, 0}, Point{10, 10}}, Segment{Point{0, 10}, Point{10, 0}}, 0},
		{"shared endpoint", Segment{Point{0, 0}, Point{10, 0}}, Segment{Point{10, 0}, Point{10, 10}}, 0},
		{"endpoint on interior", Segment{Point{0, 0}, Point{10, 0}}, Segment{Point{5, 0}, Point{5, 10}}, 0},
		{"collinear overlap", Segment{Point{0, 0}, Point{10, 0}}, Segment{Point{5, 0}, Point{15, 0}}, 0},
		{"collinear gap", Segment{Point{0, 0}, Point{4, 0}}, Segment{Point{7, 0}, Point{10, 0}}, 3},
		{"parallel", Segment{Point{0, 0}, Point{10, 0}}, Segment{Point{0, 4}, Point{10, 4}}, 4},
		{"skew, endpoint nearest", Segment{Point{0, 0}, Point{10, 0}}, Segment{Point{3, 5}, Point{4, 9}}, 5},
		{"degenerate both", Segment{Point{1, 1}, Point{1, 1}}, Segment{Point{4, 5}, Point{4, 5}}, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.s.DistToSegment(c.u)
			if math.Abs(got-c.want) > 1e-9 {
				t.Errorf("DistToSegment(%v, %v) = %v, want %v", c.s, c.u, got, c.want)
			}
			if sym := c.u.DistToSegment(c.s); math.Abs(sym-got) > 1e-9 {
				t.Errorf("asymmetric: %v vs %v", got, sym)
			}
		})
	}
}

func TestCapsuleContains(t *testing.T) {
	c := Capsule{Seg: Segment{Point{100, 100}, Point{300, 100}}, Radius: 50}
	in := []Point{{100, 100}, {200, 130}, {320, 100}, {80, 90}}
	out := []Point{{200, 160}, {351, 100}, {49, 100}, {0, 0}}
	for _, p := range in {
		if !c.Contains(p) {
			t.Errorf("%v must contain %v", c, p)
		}
	}
	for _, p := range out {
		if c.Contains(p) {
			t.Errorf("%v must not contain %v", c, p)
		}
	}
}

func TestCapsuleIntersectsSegment(t *testing.T) {
	c := Capsule{Seg: Segment{Point{100, 100}, Point{300, 100}}, Radius: 50}
	hits := []Segment{
		{Point{200, 0}, Point{200, 300}},   // crosses the spine
		{Point{0, 130}, Point{400, 130}},   // parallel inside the band
		{Point{340, 100}, Point{500, 100}}, // enters the end cap
		{Point{150, 120}, Point{180, 140}}, // fully inside
	}
	misses := []Segment{
		{Point{0, 200}, Point{400, 200}},   // parallel above
		{Point{360, 100}, Point{500, 100}}, // beyond the end cap
		{Point{0, 0}, Point{40, 40}},       // far corner
	}
	for _, s := range hits {
		if !c.IntersectsSegment(s) {
			t.Errorf("%v must intersect %v", c, s)
		}
	}
	for _, s := range misses {
		if c.IntersectsSegment(s) {
			t.Errorf("%v must not intersect %v", c, s)
		}
	}
}

// TestCapsuleDegenerateMatchesDisk pins the capsule/disk equivalence a
// zero-length spine promises: away from the boundary (where the two
// predicates' epsilon conventions differ), a dot capsule and a disk at
// the same center agree on containment and segment intersection.
func TestCapsuleDegenerateMatchesDisk(t *testing.T) {
	center := Point{500, 500}
	cap := Capsule{Seg: Segment{center, center}, Radius: 120}
	disk := Disk{Center: center, Radius: 120}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		p := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		if math.Abs(center.Dist(p)-120) < 1e-6 {
			continue // boundary: epsilon conventions differ
		}
		if cap.Contains(p) != disk.Contains(p) {
			t.Fatalf("containment disagrees at %v", p)
		}
		q := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		s := Segment{p, q}
		if math.Abs(s.DistToPoint(center)-120) < 1e-6 {
			continue
		}
		if cap.IntersectsSegment(s) != disk.IntersectsSegment(s) {
			t.Fatalf("intersection disagrees on %v", s)
		}
	}
}

// Property: DistToSegment is consistent with dense point sampling —
// the true minimum over sampled point pairs can only be larger (the
// sampling is coarse) but never smaller than the closed-form answer.
func TestDistToSegmentSamplingLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		s := Segment{randPt(rng), randPt(rng)}
		u := Segment{randPt(rng), randPt(rng)}
		d := s.DistToSegment(u)
		if d < 0 {
			t.Fatalf("negative distance %v", d)
		}
		const steps = 24
		sampled := math.Inf(1)
		for i := 0; i <= steps; i++ {
			p := lerp(s.A, s.B, float64(i)/steps)
			if v := u.DistToPoint(p); v < sampled {
				sampled = v
			}
		}
		if d > sampled+1e-9 {
			t.Fatalf("DistToSegment(%v,%v)=%v exceeds sampled min %v", s, u, d, sampled)
		}
	}
}

func randPt(rng *rand.Rand) Point {
	return Point{rng.Float64() * 2000, rng.Float64() * 2000}
}

func lerp(a, b Point, t float64) Point {
	return Point{a.X + (b.X-a.X)*t, a.Y + (b.Y-a.Y)*t}
}
