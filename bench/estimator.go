package main

import (
	"math"
	"sort"
)

// floors is the estimator every timing in this program goes through:
// each unit of a fixed plan is timed on its own in every pass, and the
// unit's cost is the minimum over passes. On a shared 2-vCPU host whole-
// run means drift by tens of percent on identical code while per-unit
// minima repeat within a few percent; what the floor hides (GC- and
// scheduler-induced tail) is reported beside it as raw.ops_per_s,
// host.disturbance and the go.* rows.
type floors struct {
	ns []int64 // ns[i] = min over passes of unit i's wall time
	// improved[i] is the last pass in which unit i's floor went down;
	// floor.settled_share reads it.
	improved []int32
	// passSum[p] is the sum of raw unit times of pass p.
	passSum []int64
	passes  int
}

// newFloors pre-sizes every sample array so the measured loop allocates
// nothing.
func newFloors(units, maxPasses int) *floors {
	f := &floors{
		ns:       make([]int64, units),
		improved: make([]int32, units),
		passSum:  make([]int64, maxPasses),
	}
	for i := range f.ns {
		f.ns[i] = math.MaxInt64
	}
	return f
}

// observe records unit i's wall time in the current pass.
func (f *floors) observe(i int, d int64) {
	if d < f.ns[i] {
		f.ns[i] = d
		f.improved[i] = int32(f.passes)
	}
	f.passSum[f.passes] += d
}

func (f *floors) endPass() { f.passes++ }

// sum is the floor pass time: the sum of every unit's floor.
func (f *floors) sum() int64 {
	var s int64
	for _, v := range f.ns {
		s += v
	}
	return s
}

// latencies are the floors of the latency units: sums of `group`
// consecutive timed units, sorted ascending. A workload whose timed units
// are deliberately smaller than what its user waits for (sweep_cases
// times one shard, its user waits for a row of shards) groups them here.
func (f *floors) latencies(group int) []int64 {
	lat := make([]int64, 0, len(f.ns)/group)
	for i := 0; i+group <= len(f.ns); i += group {
		var s int64
		for _, v := range f.ns[i : i+group] {
			s += v
		}
		lat = append(lat, s)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat
}

// quantile is the nearest-rank q-quantile of sorted latencies, with the
// number of latency units beyond it.
func quantile(sorted []int64, q float64) (ns int64, beyond int) {
	k := quantileRank(len(sorted), q)
	return sorted[k], len(sorted) - 1 - k
}

// quantileRank is the zero-based nearest-rank index of the q-quantile
// among n sorted values.
func quantileRank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// floorSummary is the three timings every workload reports.
type floorSummary struct {
	opsPerS    float64
	p50Ms      float64
	tailMs     float64
	tailBeyond int
}

// summary turns the unit floors into the end-to-end timings: ops per
// second of the floor pass, and the median and tail quantile of the
// latency units' floors.
func (f *floors) summary(opsPerUnit int, tailQ float64, group int) floorSummary {
	lat := f.latencies(group)
	p50, _ := quantile(lat, 0.50)
	tail, beyond := quantile(lat, tailQ)
	return floorSummary{
		opsPerS:    float64(len(f.ns)*opsPerUnit) / (float64(f.sum()) / 1e9),
		p50Ms:      float64(p50) / 1e6,
		tailMs:     float64(tail) / 1e6,
		tailBeyond: beyond,
	}
}

// rawMean is the mean raw pass time: what a whole-run mean would report.
func (f *floors) rawMean() float64 {
	var s int64
	for _, v := range f.passSum[:f.passes] {
		s += v
	}
	return float64(s) / float64(f.passes)
}

// settledShare is the share of units whose floor did not improve in the
// last third of the passes.
func (f *floors) settledShare() float64 {
	cut := int32(f.passes - f.passes/3)
	settled := 0
	for _, p := range f.improved {
		if p < cut {
			settled++
		}
	}
	return float64(settled) / float64(len(f.improved))
}

// minOf times fn k times and returns the fastest, in nanoseconds. It is
// the floor estimator for one-off steps (set-up, layer probes).
func minOf(k int, fn func()) int64 {
	best := int64(math.MaxInt64)
	for i := 0; i < k; i++ {
		t0 := now()
		fn()
		if d := since(t0); d < best {
			best = d
		}
	}
	return best
}

// median of a non-empty slice (not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
