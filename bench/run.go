package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"time"
)

// runConfig is one run's command line.
type runConfig struct {
	workload        string
	seed            int64
	seconds         float64
	trace           bool
	workdir         string
	out             string
	corruptExpected bool
}

// workload is what the measured loop needs from a workload. op is the
// only timed call; everything else runs off the clock.
type workload interface {
	// setup builds the op plan and repeats the workload's set-up steps k
	// times on fresh state, leaving the last repeat's state installed.
	setup(k int) error
	// setupAgain drops the installed state, repeats the set-up steps k
	// more times and returns the sum over steps of each step's minimum
	// over all repeats so far. It runs after the measured passes: repeats
	// half a minute apart see more of the host's moods than repeats back
	// to back.
	setupAgain(k int) (seconds float64, err error)
	// setupK is the number of repeats on each side of the measured passes.
	setupK() int
	// prime computes the expected answers and runs one unmeasured pass
	// that must reproduce them.
	prime() error
	units() int
	opsPerUnit() int
	tailQ() float64
	// latGroup is the number of consecutive timed units one latency
	// sample sums (1: every timed unit is a latency unit).
	latGroup() int
	minPasses() int
	planHash() string
	op(i int)
	// check verifies op i's answer right after it ran.
	check(i int) bool
	// endPass does per-pass verification and cleanup and returns the
	// number of units whose answers were wrong.
	endPass() (bad int)
	close()
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case wlSweepCases:
		return newSweepLoad(cfg), nil
	case wlServeHot, wlServeMiss, wlScaleServe:
		return newServeLoad(cfg.workload, cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", cfg.workload)
}

// maxPasses sizes the per-pass sample array; the fastest pass is about
// 50 ms, so a run_seconds-long phase stays far below it.
const maxPasses = 1 << 13

// metricValue is one reported number in the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run learned; result() projects it onto the
// contract's last-line JSON and -out writes it whole.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	PlanHash  string                 `json:"plan_hash"`
	Units     int                    `json:"units_per_pass"`
	Passes    int                    `json:"passes"`
	SetupK    int                    `json:"setup_repeats"`
	TailQ     float64                `json:"tail_quantile"`
	TailOver  int                    `json:"units_beyond_tail"`
	// Side numbers printed beside the floors so the gap is visible.
	RawOpsPerS  float64    `json:"raw_ops_per_s"`
	Disturbance float64    `json:"host_disturbance"`
	CalMs       [2]float64 `json:"host_cal_ms"`
	// PhaseS is the wall time of plan+set-up repeats, expected answers+
	// priming pass, the measured passes, and the set-up repeats after them.
	PhaseS [4]float64 `json:"phase_wall_s"`
	Host   hostInfo   `json:"host"`
}

// set records a declared metric with the unit its declaration gives it.
func (r *runResult) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metricValue{v, s.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

// measured is the outcome of the measured passes over one plan.
type measured struct {
	fl        *floors
	failed    int // units with a wrong answer, a non-200 or an error
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	cpuS      float64
	gcCPUS    float64
	wallS     float64
	heapSysMB float64
}

// measure runs passes over the workload's fixed plan until `seconds` of
// wall time have been measured and at least minPasses passes are in, with
// a hard cap at 1.25x the time (seconds 0: exactly minPasses passes).
// Every unit is timed on its own; nothing in this loop allocates.
func measure(w workload, seconds float64, minPasses int, op func(i int)) measured {
	n := w.units()
	m := measured{fl: newFloors(n, maxPasses)}
	var ms0, ms1 runtime.MemStats
	cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
	start := now()
	for m.fl.passes < maxPasses {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			t0 := now()
			op(i)
			m.fl.observe(i, since(t0))
			if !w.check(i) {
				m.failed++
			}
		}
		runtime.ReadMemStats(&ms1)
		m.mallocs += ms1.Mallocs - ms0.Mallocs
		m.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		m.gcCycles += ms1.NumGC - ms0.NumGC
		m.failed += w.endPass()
		m.fl.endPass()
		el := float64(since(start)) / 1e9
		if (el >= seconds && m.fl.passes >= minPasses) || (seconds > 0 && el >= 1.25*seconds) {
			break
		}
	}
	m.wallS = float64(since(start)) / 1e9
	m.cpuS = cpuSeconds() - cpu0
	m.gcCPUS = gcCPUSeconds() - gc0
	m.heapSysMB = float64(ms1.HeapSys) / (1 << 20)
	return m
}

// runOne executes one workload run in this process.
func runOne(cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metricValue{}, Host: readHost(),
	}
	if cfg.trace {
		return res, runTraced(cfg, w, res)
	}

	res.CalMs[0] = calibrate()
	res.SetupK = w.setupK()
	t0 := now()
	if err := w.setup(res.SetupK); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.PlanHash = w.planHash()
	t1 := now()
	if err := w.prime(); err != nil {
		return nil, fmt.Errorf("priming pass: %w", err)
	}
	t2 := now()
	runtime.GC()
	m := measure(w, cfg.seconds, w.minPasses(), w.op)
	res.CalMs[1] = calibrate()
	rss := peakRSSMiB()
	t3 := now()
	setupS, err := w.setupAgain(res.SetupK)
	if err != nil {
		return nil, fmt.Errorf("set-up after the passes: %w", err)
	}
	res.PhaseS = [4]float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), m.wallS, float64(since(t3)) / 1e9}

	fl := m.fl
	ops := float64(fl.passes * w.units() * w.opsPerUnit())
	opsPerPass := float64(w.units() * w.opsPerUnit())
	sum := fl.summary(w.opsPerUnit(), w.tailQ(), w.latGroup())
	res.Units, res.Passes = w.units(), fl.passes
	res.TailQ, res.TailOver = w.tailQ(), sum.tailBeyond
	res.Attempted = int(ops)
	res.Failed = m.failed * w.opsPerUnit()
	res.Correct = m.failed == 0
	res.RawOpsPerS = opsPerPass / (fl.rawMean() / 1e9)
	res.Disturbance = fl.rawMean()/float64(fl.sum()) - 1

	set := func(name string, v float64) { res.set(endToEnd, name, v) }
	set(mSetup, setupS)
	set(mOps, sum.opsPerS)
	set(mP50, sum.p50Ms)
	set(mTail, sum.tailMs)
	set(mAllocs, float64(m.mallocs)/ops)
	set(mAllocKB, float64(m.allocB)/1024/ops)
	set(mRSS, rss)
	return res, nil
}

// Small helpers shared by the workloads.

// newSteps is a per-step minimum array for a repeated set-up.
func newSteps(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = math.MaxInt64
	}
	return s
}

func keepMin(dst *int64, d int64) {
	if d < *dst {
		*dst = d
	}
}

func sumSeconds(steps []int64) float64 {
	var s int64
	for _, v := range steps {
		s += v
	}
	return float64(s) / float64(time.Second)
}

// fnv64 is FNV-1a, inlined so hashing a body allocates nothing.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// planHash fingerprints an op plan: same seed, same hash.
type planHash struct{ hash.Hash }

func newPlanHash() planHash { return planHash{sha256.New()} }

func (h planHash) hex() string { return hex.EncodeToString(h.Sum(nil))[:16] }
