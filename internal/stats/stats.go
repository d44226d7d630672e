// Package stats provides the small statistical toolkit the experiment
// harness uses to emit the paper's figures: empirical CDFs, quantiles,
// and summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
// The zero value is an empty distribution; add samples with Add.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF builds a CDF from the given samples.
func NewCDF(samples []float64) *CDF {
	c := &CDF{samples: append([]float64(nil), samples...)}
	c.sort()
	return c
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns the fraction of samples <= x (the CDF evaluated at x).
// An empty distribution returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	idx := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples.
// It panics on an empty distribution or out-of-range q.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		panic("stats: quantile of empty distribution")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	c.sort()
	if q == 1 {
		return c.samples[len(c.samples)-1]
	}
	idx := int(q * float64(len(c.samples)))
	if idx >= len(c.samples) {
		idx = len(c.samples) - 1
	}
	return c.samples[idx]
}

// Min returns the smallest sample; it panics on an empty distribution.
func (c *CDF) Min() float64 {
	c.sort()
	return c.samples[0]
}

// Max returns the largest sample; it panics on an empty distribution.
func (c *CDF) Max() float64 {
	c.sort()
	return c.samples[len(c.samples)-1]
}

// Mean returns the sample mean (0 for an empty distribution).
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range c.samples {
		s += x
	}
	return s / float64(len(c.samples))
}

// Points returns (x, F(x)) pairs suitable for plotting the CDF as a
// step series, evaluated at every distinct sample value.
func (c *CDF) Points() [][2]float64 {
	c.sort()
	var out [][2]float64
	n := float64(len(c.samples))
	for i := 0; i < len(c.samples); i++ {
		if i+1 < len(c.samples) && c.samples[i+1] == c.samples[i] {
			continue // emit the last duplicate only
		}
		out = append(out, [2]float64{c.samples[i], float64(i+1) / n})
	}
	return out
}

// Summary bundles the headline statistics of a sample set.
type Summary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	P50  float64
	P90  float64
	P99  float64
}

// Summarize computes a Summary of the CDF's samples. An empty
// distribution yields a zero Summary.
func (c *CDF) Summarize() Summary {
	if len(c.samples) == 0 {
		return Summary{}
	}
	return Summary{
		N:    c.N(),
		Mean: c.Mean(),
		Min:  c.Min(),
		Max:  c.Max(),
		P50:  c.Quantile(0.50),
		P90:  c.Quantile(0.90),
		P99:  c.Quantile(0.99),
	}
}

// Rate is a success counter with a readable percentage.
type Rate struct {
	Hits, Total int
}

// Observe records one outcome.
func (r *Rate) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Percent returns Hits/Total in percent (0 when empty).
func (r Rate) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * (float64(r.Hits) / float64(r.Total))
}

// String implements fmt.Stringer.
func (r Rate) String() string {
	return fmt.Sprintf("%.1f%% (%d/%d)", r.Percent(), r.Hits, r.Total)
}
