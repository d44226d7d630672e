// Command rtrscale exercises the large-graph pipeline end to end and
// gates it with wall-clock and memory budgets: synthesize a
// hierarchical PoP topology (10^5 nodes by default), stream it through
// the binary snapshot codec — write then read, both chunked, never a
// full-file buffer — build a scale-mode world on the re-read copy
// (no MRC; the concession is logged), run one invariant-checked sweep
// shard with destination sampling, time a converged-batch recompute,
// and serve warm single-pair recovery queries through the serving
// engine.
//
//	rtrscale -nodes 100000                          # full pipeline, report timings
//	rtrscale -nodes 100000 -budget 10m -max-rss-mb 6144   # CI smoke gate
//
// Exit status: 1 on any pipeline error or a blown budget. All
// randomness derives from -seed, so every run of the same flags
// reproduces the same graph, the same shard, and the same answers.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/routing"
	seedpkg "repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 100000, "node count for the hierarchical synthesis")
		links     = flag.Int("links", 0, "link count (default 3x nodes)")
		seed      = flag.Int64("seed", 1, "base seed for synthesis, shard RNGs, and sampling")
		dstSample = flag.Int("dst-sample", 8, "destinations sampled per failure scenario in the sweep shard")
		cases     = flag.Int("cases", 12, "recoverable-case target for the checked sweep shard")
		irr       = flag.Int("irr", 4, "irrecoverable-case target for the checked sweep shard")
		servePair = flag.Int("serve-pairs", 32, "warm single-pair serving queries to time (0 skips)")
		budget    = flag.Duration("budget", 0, "exit 1 when the whole pipeline exceeds this wall-clock budget (0 = no gate)")
		maxRSS    = flag.Int("max-rss-mb", 0, "exit 1 when peak RSS (VmHWM) exceeds this many MiB (0 = no gate)")
		keepSnap  = flag.String("snap", "", "write the binary snapshot here instead of a temp file (kept after the run)")
	)
	flag.Parse()
	start := time.Now()
	name := fmt.Sprintf("synth%d", *nodes)
	if *links == 0 {
		*links = 3 * *nodes
	}

	// 1. Hierarchical synthesis.
	var topo *topology.Topology
	dTopoGen := timed(func() {
		var err error
		topo, err = topology.Generate(
			topology.GenParams{Name: name, Nodes: *nodes, Links: *links, Tiers: true},
			rand.New(rand.NewSource(seedpkg.Derive(*seed, "topogen", name))))
		if err != nil {
			die(err)
		}
	})
	report("scale-topo-gen", dTopoGen, fmt.Sprintf("%d nodes, %d links", topo.G.NumNodes(), topo.G.NumLinks()))

	// 2. Binary snapshot: chunked write, then chunked read of the same
	// file. The world below is built on the re-read copy, so the whole
	// pipeline proves the snapshot is what gets served.
	snap := *keepSnap
	if snap == "" {
		dir, err := os.MkdirTemp("", "rtrscale")
		if err != nil {
			die(err)
		}
		defer os.RemoveAll(dir)
		snap = filepath.Join(dir, name+".snap")
	}
	dSnapshotWrite := timed(func() {
		f, err := os.Create(snap)
		if err != nil {
			die(err)
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		if err := topology.WriteBinary(bw, topo, nil); err != nil {
			die(err)
		}
		if err := bw.Flush(); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
	})
	if st, err := os.Stat(snap); err == nil {
		report("scale-snapshot-write", dSnapshotWrite, fmt.Sprintf("%.1f MiB", float64(st.Size())/(1<<20)))
	}
	var snapTopo *topology.Topology
	dSnapshotRead := timed(func() {
		f, err := os.Open(snap)
		if err != nil {
			die(err)
		}
		defer f.Close()
		snapTopo, err = topology.ReadBinary(bufio.NewReaderSize(f, 1<<16), nil)
		if err != nil {
			die(err)
		}
	})
	if snapTopo.G.NumNodes() != topo.G.NumNodes() || snapTopo.G.NumLinks() != topo.G.NumLinks() {
		die(fmt.Errorf("snapshot round trip: %d/%d nodes, %d/%d links",
			snapTopo.G.NumNodes(), topo.G.NumNodes(), snapTopo.G.NumLinks(), topo.G.NumLinks()))
	}
	report("scale-snapshot-read", dSnapshotRead, "round trip verified")

	// 3. Scale-mode world. The concession (no MRC) prints so a
	// budget run states what it skipped.
	var w *sim.World
	dWorldBuild := timed(func() {
		var err error
		w, err = sim.NewWorldFromConfig(snapTopo, sim.WorldConfig{
			Log: func(msg string) { fmt.Fprintln(os.Stderr, "rtrscale: "+msg) },
		})
		if err != nil {
			die(err)
		}
	})
	if w.HasMRC() {
		die(fmt.Errorf("scale world did not engage scale mode at %d nodes", *nodes))
	}
	report("scale-world-build", dWorldBuild, "MRC disabled")

	// 4. One invariant-checked sweep shard with destination sampling.
	// The oracle gate skips the O(n^2) optimality cross-checks (logged
	// by the checker); every structural invariant still runs.
	spec := sweep.Spec{
		BaseSeed:      *seed,
		Topologies:    []string{name},
		Recoverable:   *cases,
		Irrecoverable: *irr,
		BlockCases:    *cases + *irr,
		DstSample:     *dstSample,
		Check:         true,
	}
	eng := &sweep.Engine{Spec: spec, Worlds: map[string]*sim.World{name: w}, Workers: 1}
	var run *sweep.RunResult
	dSweepShard := timed(func() {
		var err error
		run, err = eng.Run(context.Background())
		if err != nil {
			die(err)
		}
	})
	ran := 0
	for _, sr := range run.Results {
		ran += len(sr.Rec) + len(sr.Irr)
	}
	if ran == 0 {
		die(fmt.Errorf("checked sweep shard produced no cases"))
	}
	report("scale-sweep-shard", dSweepShard, fmt.Sprintf("%d checked cases (dst sample %d)", ran, *dstSample))

	// 5. Converged-batch recompute: the delete-only incremental table
	// rebuild plus materialization of the sampled destination trees —
	// the serving layer's per-failure warm-up cost.
	scRng := rand.New(rand.NewSource(seedpkg.Derive(*seed, "rtrscale", "recompute")))
	sc := failure.RandomScenario(snapTopo, scRng)
	for !sc.HasFailures() {
		sc = failure.RandomScenario(snapTopo, scRng)
	}
	dRecompute := timed(func() {
		post := routing.RecomputeTablesUnder(snapTopo, w.Tables, sc)
		for i := 0; i < *dstSample; i++ {
			post.DestTree(graph.NodeID(scRng.Intn(*nodes)))
		}
	})
	report("scale-recompute", dRecompute, fmt.Sprintf("failure %s + %d dest trees", sc.Desc(), *dstSample))

	// 6. Warm single-pair serving latency through the injected world.
	if *servePair > 0 {
		srv, err := serve.New(serve.Config{Worlds: map[string]*sim.World{name: w}, CacheEntries: 4})
		if err != nil {
			die(err)
		}
		qRng := rand.New(rand.NewSource(seedpkg.Derive(*seed, "rtrscale", "serve")))
		var queries []serve.Query
		for draws := 0; len(queries) == 0 && draws < sim.MaxCollectDraws; draws++ {
			qsc := failure.RandomScenario(snapTopo, qRng)
			recCases, _ := sim.ScaleCasesFromScenario(w, qsc, qRng, *dstSample)
			for _, c := range recCases {
				queries = append(queries, serve.Query{
					Topo: name, Failure: qsc.Desc(), Scheme: serve.SchemeRTR,
					Src: int(c.Initiator), Dst: int(c.Dst),
				})
			}
		}
		if len(queries) == 0 {
			die(fmt.Errorf("no serving cases found"))
		}
		if _, err := srv.Query(queries[0]); err != nil { // warm the entry once
			die(err)
		}
		var h perf.Histogram
		for i := 0; i < *servePair; i++ {
			q0 := time.Now()
			if _, err := srv.Query(queries[i%len(queries)]); err != nil {
				die(err)
			}
			h.Record(time.Since(q0).Nanoseconds())
		}
		fmt.Printf("rtrscale: %-22s %12v  (p50 %v, p99 %v, warm cache)\n", "scale-serve-pair",
			time.Duration(h.Mean()).Round(time.Microsecond),
			time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
	}

	// Budgets.
	wall := time.Since(start)
	rss, rssErr := peakRSSMiB()
	if rssErr != nil {
		fmt.Fprintf(os.Stderr, "rtrscale: peak RSS unavailable: %v\n", rssErr)
	}
	fmt.Printf("rtrscale: pipeline complete in %v, peak RSS %d MiB\n", wall.Round(time.Millisecond), rss)
	if *budget > 0 && wall > *budget {
		fmt.Fprintf(os.Stderr, "rtrscale: wall clock %v exceeds -budget %v\n", wall.Round(time.Millisecond), *budget)
		os.Exit(1)
	}
	if *maxRSS > 0 && rssErr == nil && rss > *maxRSS {
		fmt.Fprintf(os.Stderr, "rtrscale: peak RSS %d MiB exceeds -max-rss-mb %d\n", rss, *maxRSS)
		os.Exit(1)
	}
}

// timed runs one pipeline stage and returns its wall time.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// report prints one stage's wall time with a human-readable note.
func report(stage string, d time.Duration, note string) {
	fmt.Printf("rtrscale: %-22s %12v  (%s)\n", stage, d.Round(time.Millisecond), note)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status; it is the number the -max-rss-mb gate compares.
func peakRSSMiB() (int, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "rtrscale: %v\n", err)
	os.Exit(1)
}
