package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	cases := []struct {
		x, want float64
	}{
		{0, 0},
		{1, 0.2},
		{1.5, 0.2},
		{2, 0.6},
		{3, 0.8},
		{9.99, 0.8},
		{10, 1},
		{11, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if (&CDF{}).At(5) != 0 {
		t.Error("empty CDF must evaluate to 0")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Q(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 5 {
		t.Errorf("Q(1) = %v, want 5", got)
	}
	if got := c.Quantile(0.5); got != 3 {
		t.Errorf("Q(0.5) = %v, want 3", got)
	}
}

func TestCDFQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("quantile of empty CDF must panic")
		}
	}()
	(&CDF{}).Quantile(0.5)
}

func TestCDFQuantileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range q must panic")
		}
	}()
	NewCDF([]float64{1}).Quantile(1.5)
}

func TestCDFAddAndStats(t *testing.T) {
	var c CDF
	for _, x := range []float64{4, 2, 8, 6} {
		c.Add(x)
	}
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	if c.Min() != 2 || c.Max() != 8 {
		t.Errorf("min/max = %v/%v", c.Min(), c.Max())
	}
	if c.Mean() != 5 {
		t.Errorf("mean = %v, want 5", c.Mean())
	}
	s := c.Summarize()
	if s.N != 4 || s.Min != 2 || s.Max != 8 || s.Mean != 5 {
		t.Errorf("summary = %+v", s)
	}
	if (&CDF{}).Summarize() != (Summary{}) {
		t.Error("empty summary must be zero")
	}
	if (&CDF{}).Mean() != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 1, 2, 3})
	pts := c.Points()
	want := [][2]float64{{1, 0.5}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("points = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("points[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		n := 1 + rng.Intn(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		c := NewCDF(samples)
		// CDF must be monotone and agree with a direct count.
		xs := append([]float64(nil), samples...)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			v := c.At(x)
			if v < prev {
				return false
			}
			count := 0
			for _, s := range samples {
				if s <= x {
					count++
				}
			}
			if math.Abs(v-float64(count)/float64(n)) > 1e-12 {
				return false
			}
			prev = v
		}
		return c.At(math.Inf(1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRate(t *testing.T) {
	var r Rate
	if r.Percent() != 0 {
		t.Error("empty rate must be 0")
	}
	r.Observe(true)
	r.Observe(true)
	r.Observe(false)
	if r.Hits != 2 || r.Total != 3 {
		t.Errorf("rate = %+v", r)
	}
	if math.Abs(r.Percent()/100-2.0/3.0) > 1e-12 {
		t.Errorf("fraction = %v", r.Percent()/100)
	}
	if r.String() == "" {
		t.Error("string must be non-empty")
	}
}
