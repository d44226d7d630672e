package perf

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose upper edge is >= the
	// value and within ~1.6% of it (bucket width 2^(top-7)).
	vals := []int64{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
		1 << 20, (1 << 20) + 12345, 1 << 40, 1<<62 - 1, 1 << 62}
	for _, v := range vals {
		idx := histIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, idx)
		}
		u := histUpper(idx)
		if u < v {
			t.Errorf("histUpper(histIndex(%d)) = %d < value", v, u)
		}
		if v >= 64 && float64(u-v) > 0.017*float64(v) {
			t.Errorf("bucket error for %d: upper %d (%.4f relative)", v, u, float64(u-v)/float64(v))
		}
	}
	// Monotone: larger values never map to smaller buckets.
	prev := -1
	for v := int64(0); v < 1<<16; v += 7 {
		idx := histIndex(v)
		if idx < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	rng := rand.New(rand.NewSource(42))
	n := 20000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.ExpFloat64() * 50_000) // latency-shaped
		h.Record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		exact := vals[min(n-1, int(q*float64(n)))]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("Quantile(%g) = %d below exact %d", q, got, exact)
		}
		if float64(got) > float64(exact)*1.03+64 {
			t.Errorf("Quantile(%g) = %d too far above exact %d", q, got, exact)
		}
	}
	if h.Max() != vals[n-1] {
		t.Errorf("max: got %d, want %d", h.Max(), vals[n-1])
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1) = %d, want max %d", h.Quantile(1), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for i := int64(0); i < 1000; i++ {
		a.Record(i * 3)
		all.Record(i * 3)
	}
	for i := int64(0); i < 500; i++ {
		b.Record(i * 1000)
		all.Record(i * 1000)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Max() != all.Max() || a.Mean() != all.Mean() {
		t.Fatal("merge does not match direct accumulation")
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%g): merged %d != direct %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != all.Count() {
		t.Fatal("merging an empty histogram changed the count")
	}
}
