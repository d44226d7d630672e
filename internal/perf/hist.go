// Package perf holds the allocation-free latency histogram the load
// tools (cmd/rtrload, cmd/rtrscale) record client-side latencies into.
// The repo's performance record itself is produced by bench/ (see
// bench/README.md).
package perf

import (
	"math"
	"math/bits"
)

// Histogram is an HDR-style latency histogram: values are bucketed
// into power-of-two ranges split into 64 linear subbuckets, so every
// recorded value lands in a bucket whose width is at most ~1.6% of the
// value. That bounds the quantile error the same way hdrhistogram's
// significant-figure setting does, without per-record allocation —
// Record is a couple of shifts and one counter increment, so the load
// generator can call it on every request without perturbing what it
// measures.
//
// The zero Histogram is ready to use. A Histogram is not safe for
// concurrent use; the intended pattern is one per worker goroutine,
// merged after the run.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

// histSubBits fixes 2^6 = 64 linear subbuckets per power-of-two range.
const histSubBits = 6

// histBuckets covers every non-negative int64: values below 64 index
// exactly, and each further power of two contributes 64 subbuckets
// ((63-6)*64 + 128 < 4096).
const histBuckets = 4096

// histIndex maps a value to its bucket. Values below 2^histSubBits are
// exact; larger values keep their top histSubBits+1 bits.
func histIndex(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	top := bits.Len64(uint64(v)) // 2^(top-1) <= v < 2^top, top >= 7
	return (top-7)*64 + int(v>>(top-7))
}

// histUpper returns the largest value mapping to bucket idx, the
// conservative (upper-bound) representative Quantile reports.
func histUpper(idx int) int64 {
	t := idx >> histSubBits
	if t == 0 {
		return int64(idx)
	}
	m := int64(idx - (t-1)*64)
	return (m+1)<<(t-1) - 1
}

// Record adds one observation (negative values count as zero).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Merge folds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.n }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of the recorded values (exact, from
// the running sum rather than the buckets).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]): the
// upper edge of the bucket holding the ceil(q*n)-th smallest
// observation, clamped to the observed max. Quantile(0.5) is the
// median, Quantile(1) the maximum.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			u := histUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}
