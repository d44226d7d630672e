package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSmallestEnclosingDiskTrivial(t *testing.T) {
	if d := SmallestEnclosingDisk(nil); d.Radius != 0 {
		t.Errorf("empty set: %v", d)
	}
	d := SmallestEnclosingDisk([]Point{{3, 4}})
	if d.Radius != 0 || !d.Center.eq(Point{3, 4}) {
		t.Errorf("single point: %v", d)
	}
}

func TestSmallestEnclosingDiskTwoPoints(t *testing.T) {
	d := SmallestEnclosingDisk([]Point{{0, 0}, {10, 0}})
	if !d.Center.eq(Point{5, 0}) || math.Abs(d.Radius-5) > 1e-9 {
		t.Errorf("two points: %v", d)
	}
}

func TestSmallestEnclosingDiskTriangle(t *testing.T) {
	// Equilateral-ish: circumcircle of a right triangle is the
	// hypotenuse midpoint.
	d := SmallestEnclosingDisk([]Point{{0, 0}, {8, 0}, {0, 6}})
	if !d.Center.eq(Point{4, 3}) || math.Abs(d.Radius-5) > 1e-9 {
		t.Errorf("right triangle: %v", d)
	}
}

func TestSmallestEnclosingDiskObtuse(t *testing.T) {
	// For an obtuse triangle the two farthest points define the disk;
	// the third is strictly inside.
	d := SmallestEnclosingDisk([]Point{{0, 0}, {10, 0}, {5, 1}})
	if !d.Center.eq(Point{5, 0}) || math.Abs(d.Radius-5) > 1e-9 {
		t.Errorf("obtuse triangle: %v", d)
	}
}

func TestSmallestEnclosingDiskCollinear(t *testing.T) {
	d := SmallestEnclosingDisk([]Point{{0, 0}, {4, 0}, {10, 0}, {7, 0}})
	if !d.Center.eq(Point{5, 0}) || math.Abs(d.Radius-5) > 1e-9 {
		t.Errorf("collinear points: %v", d)
	}
}

func TestSmallestEnclosingDiskDuplicates(t *testing.T) {
	d := SmallestEnclosingDisk([]Point{{1, 1}, {1, 1}, {1, 1}})
	if d.Radius > 1e-9 || !d.Center.eq(Point{1, 1}) {
		t.Errorf("duplicates: %v", d)
	}
}

// Properties: (1) every input point is inside the closed disk;
// (2) the disk is minimal — no disk through fewer support points is
// smaller, approximated by checking the radius does not exceed the
// brute-force best over all point pairs and triples.
func TestSmallestEnclosingDiskProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		n := 1 + rng.Intn(25)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		d := SmallestEnclosingDisk(pts)
		for _, p := range pts {
			if d.Center.Dist(p) > d.Radius+1e-6 {
				return false
			}
		}
		// Brute force: the optimum is determined by 2 or 3 points.
		best := math.Inf(1)
		contains := func(c Disk) bool {
			for _, p := range pts {
				if c.Center.Dist(p) > c.Radius+1e-6 {
					return false
				}
			}
			return true
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if c := diskFrom2(pts[i], pts[j]); contains(c) && c.Radius < best {
					best = c.Radius
				}
				for k := j + 1; k < n; k++ {
					c := circumdisk(pts[i], pts[j], pts[k])
					if c.Radius > 0 && contains(c) && c.Radius < best {
						best = c.Radius
					}
				}
			}
		}
		return d.Radius <= best+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCircumdisk(t *testing.T) {
	d := circumdisk(Point{0, 0}, Point{2, 0}, Point{1, 1})
	// Circumcenter of (0,0),(2,0),(1,1) is (1,0), radius 1.
	if !d.Center.eq(Point{1, 0}) || math.Abs(d.Radius-1) > 1e-9 {
		t.Errorf("circumdisk: %v", d)
	}
	if d := circumdisk(Point{0, 0}, Point{1, 0}, Point{2, 0}); d.Radius != 0 {
		t.Errorf("collinear circumdisk must be zero: %v", d)
	}
}
