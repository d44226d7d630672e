package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the measured phase of one run: passes over the fixed op
// plan are repeated until this much wall time has been measured.
const runSeconds = 20

// metricSpec declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Moves names the end-to-end metric@workload a per-layer row is
	// expected to move (README and -all output; not part of the contract).
	Moves string
}

// workloadSpec declares one workload and the reason it exists.
type workloadSpec struct {
	Name string
	Why  string
}

const (
	wlSweepCases = "sweep_cases"
	wlServeHot   = "serve_hot"
	wlServeMiss  = "serve_miss"
	wlScaleServe = "scale_serve"
)

var workloads = []workloadSpec{
	{wlSweepCases, "Table III/IV sweep in small shards, one per topology and radius band: case collection, the batched RTR/FCP/MRC runners, record building and the table merge do the work; serve is idle"},
	{wlServeHot, "served queries on a cache that holds every failure (hit rate 1): decode, parse+fingerprint, LRU hit, memoised session, phase 2, FCP/MRC, grading and JSON encode; no table recompute"},
	{wlServeMiss, "same handler at the default cache size, failures visited cyclically so every visit misses: insert/evict and entry warm-up (recompute, local view, first truth tree) instead of lookup"},
	{wlScaleServe, "16k-node scale-mode world read from a binary snapshot, rtr queries on warm entries: lazy tables, no MRC, per-query work on arrays outside the CPU caches; world build and first touches are the set-up"},
}

// End-to-end metric names, the same on every workload.
const (
	mSetup    = "setup_s"
	mOps      = "ops_per_s"
	mP50      = "lat_p50_ms"
	mTail     = "lat_tail_ms"
	mAllocs   = "allocs_per_op"
	mAllocKB  = "alloc_kb_per_op"
	mRSS      = "rss_mb"
	lower     = "lower"
	higher    = "higher"
	unitCount = "count"
)

var endToEnd = []metricSpec{
	{Name: mSetup, Unit: "s", Better: lower, Bound: 0.25},
	{Name: mOps, Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: mP50, Unit: "ms", Better: lower, Bound: 0.25},
	{Name: mTail, Unit: "ms", Better: lower, Bound: 0.25},
	{Name: mAllocs, Unit: unitCount, Better: lower, Bound: 0.10},
	{Name: mAllocKB, Unit: "KiB", Better: lower, Bound: 0.10},
	{Name: mRSS, Unit: "MiB", Better: lower, Bound: 0.10},
}

// perLayer is the outside-in layer ledger of a traced run. Rows named
// after a package are floors of calls into that package's public
// functions on reference inputs drawn from -seed (the eight Table II
// worlds and the scale world); the go/proc/raw/host/floor/trace rows are
// computed from the named workload's own passes.
var perLayer = []metricSpec{
	{Name: "topology.generate_ms", Unit: "ms", Better: lower, Moves: "setup_s@sweep_cases,serve_*"},
	{Name: "topology.cross_index_ms", Unit: "ms", Better: lower, Moves: "setup_s@sweep_cases,serve_*"},
	{Name: "topology.snapshot_read_ms", Unit: "ms", Better: lower, Moves: "setup_s@scale_serve"},
	{Name: "topology.snapshot_write_ms", Unit: "ms", Better: lower, Moves: "setup_s@scale_serve"},

	{Name: "routing.tables_cold_ms", Unit: "ms", Better: lower, Moves: "setup_s"},
	{Name: "routing.tables_lazy_ms", Unit: "ms", Better: lower, Moves: "setup_s@scale_serve"},
	{Name: "routing.recompute_ms", Unit: "ms", Better: lower, Moves: "lat_tail_ms,ops_per_s@serve_miss; ops_per_s@sweep_cases"},
	{Name: "routing.dest_tree_ms", Unit: "ms", Better: lower, Moves: "setup_s@scale_serve (first touches)"},
	{Name: "routing.trace_default_us", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases"},
	{Name: "routing.localview_us", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases,serve_miss"},

	{Name: "mrc.build_ms", Unit: "ms", Better: lower, Moves: "setup_s"},
	{Name: "mrc.recover_us_per_case", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases; lat_p50_ms@serve_hot"},
	{Name: "fcp.recover_us_per_case", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases; lat_p50_ms@serve_hot"},

	{Name: "core.collect_us", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases; lat_tail_ms@serve_miss"},
	{Name: "core.collect_hops", Unit: unitCount, Better: lower, Moves: "core.collect_us"},
	{Name: "core.phase2_us", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases; lat_p50_ms@serve_hot,serve_miss"},
	{Name: "core.forward_us", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases; lat_p50_ms@serve_hot,serve_miss"},
	{Name: "core.clean_tree_us", Unit: "us", Better: lower, Moves: "setup_s; first touch of an initiator"},

	{Name: "spt.compute_us", Unit: "us", Better: lower, Moves: "routing.*, core.phase2_us"},
	{Name: "spt.recompute_us", Unit: "us", Better: lower, Moves: "routing.recompute_ms, truth trees"},
	{Name: "spt.goal_us", Unit: "us", Better: lower, Moves: "core.phase2_us under goal engines"},

	{Name: "failure.generate_us", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases"},
	{Name: "failure.parse_us", Unit: "us", Better: lower, Moves: "lat_p50_ms@serve_hot"},

	{Name: "sim.world_build_ms", Unit: "ms", Better: lower, Moves: "setup_s,rss_mb (all)"},
	{Name: "sim.world_build_allocs", Unit: unitCount, Better: lower, Moves: "setup_s,rss_mb (all)"},
	{Name: "sim.scale_world_build_ms", Unit: "ms", Better: lower, Moves: "setup_s,rss_mb@scale_serve"},
	{Name: "sim.collect_us_per_case", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases"},
	{Name: "sim.runall_us_per_case", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases"},
	{Name: "sim.records_us_per_case", Unit: "us", Better: lower, Moves: "ops_per_s@sweep_cases"},
	{Name: "sim.scale_collect_ms", Unit: "ms", Better: lower, Moves: "none end-to-end (plan building)"},
	{Name: "sim.runall_scaling_x", Unit: "x", Better: higher, Moves: "none end-to-end (1 client)"},

	{Name: "sweep.run_ms_per_shard", Unit: "ms", Better: lower, Moves: "ops_per_s,lat_p50_ms@sweep_cases"},
	{Name: "sweep.checkpoint_ms_per_shard", Unit: "ms", Better: lower, Moves: "none end-to-end (timed shards are in memory)"},
	{Name: "sweep.merge_ms", Unit: "ms", Better: lower, Moves: "ops_per_s,lat_p50_ms@sweep_cases"},
	{Name: "sweep.scaling_x", Unit: "x", Better: higher, Moves: "none end-to-end (Workers 1)"},

	{Name: "serve.new_ms", Unit: "ms", Better: lower, Moves: "setup_s@serve_*"},
	{Name: "serve.handler_us", Unit: "us", Better: lower, Moves: "lat_p50_ms,ops_per_s@serve_hot"},
	{Name: "serve.query_us", Unit: "us", Better: lower, Moves: "lat_p50_ms,ops_per_s@serve_hot"},
	{Name: "serve.codec_us", Unit: "us", Better: lower, Moves: "lat_p50_ms,ops_per_s@serve_hot"},
	{Name: "serve.batch_us_per_pair", Unit: "us", Better: lower, Moves: "none end-to-end (single-pair queries)"},
	{Name: "serve.miss_ms", Unit: "ms", Better: lower, Moves: "lat_tail_ms,ops_per_s@serve_miss"},
	{Name: "serve.fresh_entry_us", Unit: "us", Better: lower, Moves: "lat_p50_ms@serve_miss"},
	{Name: "serve.evictions_per_kop", Unit: unitCount, Better: lower, Moves: "ops_per_s@serve_miss"},
	{Name: "serve.hit_rate", Unit: "ratio", Better: higher, Moves: "ops_per_s@serve_miss"},
	{Name: "serve.first_touch_ms", Unit: "ms", Better: lower, Moves: "setup_s@scale_serve (first touches)"},
	{Name: "serve.stage_sum_share", Unit: "ratio", Better: higher, Moves: "how much of a hot query the ledger explains"},
	{Name: "serve.loopback_us", Unit: "us", Better: lower, Moves: "never in an end-to-end number (transport row)"},
	{Name: "serve.scaling_x", Unit: "x", Better: higher, Moves: "none end-to-end (1 client)"},

	{Name: "invariant.check_us_per_case", Unit: "us", Better: lower, Moves: "nothing here (-check is off end to end)"},

	{Name: "go.gc_cpu_share", Unit: "ratio", Better: lower, Moves: "ops_per_s; hidden tail"},
	{Name: "go.gc_cycles_per_kop", Unit: unitCount, Better: lower, Moves: "alloc_kb_per_op"},
	{Name: "go.heap_peak_mb", Unit: "MiB", Better: lower, Moves: "rss_mb"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: lower, Moves: "ops_per_s"},
	{Name: "raw.ops_per_s", Unit: "1/s", Better: higher, Moves: "ops_per_s without the floor"},
	{Name: "host.disturbance", Unit: "ratio", Better: lower, Moves: "gap between raw and floor"},
	{Name: "host.cal_ms", Unit: "ms", Better: lower, Moves: "host speed, not the program"},
	{Name: "floor.settled_share", Unit: "ratio", Better: higher, Moves: "trust in the floors"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower, Moves: "cost of recording spans"},
}

// benchmarkFile mirrors BENCHMARK.json key for key; -list prints it and
// the tests require the printed form to equal the committed file.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []listWorkload `json:"workloads"`
	EndToEnd   []listMetric   `json:"end_to_end"`
	PerLayer   []listLayer    `json:"per_layer"`
}

type listWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type listMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type listLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkDecl() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, listWorkload(w))
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, listMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, listLayer{m.Name, m.Unit, m.Better})
	}
	return f
}

// writeList prints the benchmark declaration in BENCHMARK.json's form.
func writeList(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchmarkDecl())
}
