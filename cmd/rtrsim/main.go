// Command rtrsim runs the paper's evaluation: it regenerates every
// table and figure of "Optimal Recovery from Large-Scale Failures in
// IP Networks" (ICDCS 2012) on synthesized Table II topologies.
//
// Usage:
//
//	rtrsim -exp all                    # everything, default workload
//	rtrsim -exp table3 -as AS209       # one table, one topology
//	rtrsim -exp fig7,fig10 -cases 2000 # figures with a smaller workload
//
// Experiments: table2 table3 table4 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 loss ablation netsim multiarea congestion (and "all"). Pass
// -csv <dir> to also write machine-readable CSV files for plotting.
//
// The congestion experiment replays a gravity-model traffic matrix at
// heavy offered load under failures and reports per-link utilization
// before and after recovery, once per scheme named by -scheme (any
// names from the recovery-scheme registry, e.g. rtr,rtr-spread):
//
//	rtrsim -exp congestion -as AS1239 -scheme rtr,rtr-spread
//
// Sweeps (table/figure workloads and fig11) execute as deterministic
// shards over a worker pool; results are identical for any -workers
// value. With -state they checkpoint as they go, an interrupt (Ctrl-C)
// drains gracefully, and -resume continues exactly where the sweep
// stopped — the final output is bit-identical to an uninterrupted run:
//
//	rtrsim -exp all -state run1           # checkpointed run
//	rtrsim -exp all -state run1 -resume   # continue after interrupt
//	rtrsim -exp table3 -workers 16        # shard-level parallelism
//
// Pass -check to run the invariant oracle (internal/invariant) on
// every sweep case and on the loss experiment's packet accounting:
// the run fails fast on the first paper-level invariant violation,
// printing a minimized repro string (topology, case triple, failure
// instance). Checking changes no results; it only validates them:
//
//	rtrsim -exp table3 -as AS1239 -cases 200 -check
//
// Pass -failure to draw sweep scenarios from a pluggable failure
// model instead of the paper's single disk (see internal/failure):
//
//	rtrsim -exp table3 -failure disks:k=3,disjoint   # multi-disk
//	rtrsim -exp fig11 -failure cut:w=200             # conduit cuts
//	rtrsim -exp table3 -failure srlg:g=16,n=2 -check # correlated SRLGs
//
// The spec joins the checkpoint fingerprint, so checkpoints of
// different failure models never merge; multi-perimeter models relax
// the single-perimeter invariants accordingly under -check.
//
// Profiling (timings are measured by bench/, see bench/README.md):
//
//	rtrsim -exp table3 -cpuprofile cpu.out  # pprof CPU profile
//	rtrsim -exp table3 -memprofile mem.out  # pprof heap profile
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/igp"
	"repro/internal/invariant"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/scheme"
	seedpkg "repro/internal/seed"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// experiments is every name -exp accepts besides "all": the flag's
// help text and its validation both read this slice, and a test holds
// the package comment's list to it.
var experiments = []string{
	"table2", "table3", "table4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"loss", "ablation", "netsim", "multiarea", "congestion",
}

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments, ", ")+", or all")
		asFlag     = flag.String("as", "all", "comma-separated Table II topologies (e.g. AS209,AS7018) or 'all'")
		cases      = flag.Int("cases", 2000, "recoverable and irrecoverable test cases per topology")
		seed       = flag.Int64("seed", 1, "base random seed (topology synthesis and workloads)")
		fig11Area  = flag.Int("fig11-areas", 200, "failure areas per radius for fig11")
		lossScen   = flag.Int("loss-scenarios", 40, "failure scenarios for the loss experiment")
		csvDir     = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel sweep shards (results are identical for any value)")
		blockSize  = flag.Int("block", sweep.DefaultBlockCases, "test cases per sweep shard (checkpoint granularity)")
		stateDir   = flag.String("state", "", "checkpoint directory (results.jsonl + manifest.json) for resumable sweeps")
		resume     = flag.Bool("resume", false, "skip shards already recorded in -state and merge their results")
		check      = flag.Bool("check", false, "run the invariant oracle on every sweep case and loss result; fail fast with a repro string")
		maxShards  = flag.Int("max-shards", 0, "stop after executing N shards, exit 2 (exercises the interrupt path deterministically)")
		failSpec   = flag.String("failure", "", "failure-generator spec for sweep cases and fig11 (disk, disks:k=3,disjoint, cut:w=200, srlg:g=16,n=2, cascade, transient, link); empty = the paper's single disk")
		schemeFlag = flag.String("scheme", "rtr,rtr-spread", "comma-separated recovery schemes for the congestion experiment (registry names: "+strings.Join(scheme.Names(), ", ")+")")
		utilPairs  = flag.Int("util-pairs", sweep.DefaultUtilPairs, "traffic-matrix size for the congestion experiment")
		utilScen   = flag.Int("util-scenarios", sweep.DefaultUtilScenarios, "failure scenarios per (topology, scheme) congestion shard")
	)
	flag.Parse()
	// Experiment, topology and scheme names fail fast at flag parse,
	// before any world is built.
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e != "all" && !slices.Contains(experiments, e) {
			fmt.Fprintf(os.Stderr, "rtrsim: -exp: unknown experiment %q (want %s, or all)\n", e, strings.Join(experiments, ", "))
			os.Exit(1)
		}
		want[e] = true
	}
	names := topology.ASNames()
	if *asFlag != "all" {
		known := names
		names = nil
		for _, name := range strings.Split(*asFlag, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(known, name) {
				fmt.Fprintf(os.Stderr, "rtrsim: -as: unknown topology %q (want %s, or all)\n", name, strings.Join(known, ", "))
				os.Exit(1)
			}
			names = append(names, name)
		}
	}
	var utilSchemes []string
	for _, name := range strings.Split(*schemeFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := scheme.Get(name); err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: -scheme: %v\n", err)
			os.Exit(1)
		}
		utilSchemes = append(utilSchemes, name)
	}
	if *resume && *stateDir == "" {
		fmt.Fprintln(os.Stderr, "rtrsim: -resume requires -state")
		os.Exit(1)
	}
	// Validate the failure spec fail-fast, before worlds are built.
	if _, err := failure.ParseSpecOrDefault(*failSpec); err != nil {
		fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
		os.Exit(1)
	}

	// Ctrl-C cancels the sweep context: in-flight shards finish and
	// are checkpointed, queued shards never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtrsim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rtrsim: memprofile: %v\n", err)
			}
		}()
	}
	all := want["all"]
	has := func(e string) bool { return all || want[e] }

	if has("table2") {
		printTable2(names, *seed)
	}

	needData := false
	for _, e := range []string{"table3", "table4", "fig7", "fig8", "fig9", "fig10", "fig12", "fig13"} {
		if has(e) {
			needData = true
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
			os.Exit(1)
		}
	}

	var worlds []*sim.World
	worldsByName := map[string]*sim.World{}
	for _, name := range names {
		w, err := sim.NewWorld(name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
			os.Exit(1)
		}
		worlds = append(worlds, w)
		worldsByName[name] = w
	}

	// All case datasets and the fig11 radius sweep run as one sharded,
	// checkpointed sweep; every shard seeds its RNG from (seed, shard
	// key), so the merged output does not depend on -workers or on
	// interrupt/resume boundaries.
	var datasets []*sim.Dataset
	var fig11Series map[string][]sim.Fig11Point
	var utilResults []*traffic.Result
	if needData || has("fig11") || has("congestion") {
		spec := sweep.Spec{BaseSeed: *seed, Topologies: names, BlockCases: *blockSize, Check: *check, Failure: *failSpec}
		if needData {
			spec.Recoverable, spec.Irrecoverable = *cases, *cases
		}
		if has("fig11") {
			spec.Fig11Radii = sim.DefaultRadii()
			spec.Fig11Areas = *fig11Area
		}
		if has("congestion") {
			spec.UtilSchemes = utilSchemes
			spec.UtilPairs = *utilPairs
			spec.UtilScenarios = *utilScen
		}
		eng := &sweep.Engine{
			Spec:          spec,
			Worlds:        worldsByName,
			Workers:       *workers,
			Dir:           *stateDir,
			Resume:        *resume,
			MaxShards:     *maxShards,
			Progress:      os.Stderr,
			ProgressEvery: 10 * time.Second,
		}
		res, err := eng.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
			os.Exit(1)
		}
		if res.Interrupted {
			if *stateDir != "" {
				fmt.Fprintf(os.Stderr, "rtrsim: interrupted after %d/%d shards; rerun with -resume -state %s to continue\n",
					len(res.Results), len(res.Plan), *stateDir)
			} else {
				fmt.Fprintf(os.Stderr, "rtrsim: interrupted after %d/%d shards; progress not kept (no -state)\n",
					len(res.Results), len(res.Plan))
			}
			os.Exit(2)
		}
		if needData {
			byName, err := res.Datasets(worldsByName)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
				os.Exit(1)
			}
			for _, w := range worlds {
				d := byName[w.Topo.Name]
				fmt.Fprintf(os.Stderr, "rtrsim: dataset %s (%d+%d cases)\n",
					w.Topo.Name, len(d.Rec), len(d.Irr))
				datasets = append(datasets, d)
			}
		}
		if has("fig11") {
			if fig11Series, err = res.Fig11(); err != nil {
				fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
				os.Exit(1)
			}
		}
		if has("congestion") {
			if utilResults, err = res.Utils(); err != nil {
				fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if has("fig7") {
		printFig7(datasets)
	}
	if has("table3") {
		printTable3(datasets)
	}
	if has("fig8") {
		printCDFPair(datasets, "Fig. 8 — CDF of stretch of recovery paths", "stretch",
			func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig8() })
	}
	if has("fig9") {
		printCDFPair(datasets, "Fig. 9 — CDF of shortest-path calculations (recoverable)", "calcs",
			func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig9() })
	}
	if has("fig10") {
		printFig10(datasets)
	}
	if has("fig11") {
		printFig11(fig11Series, names)
	}
	if has("fig12") {
		printCDFPair(datasets, "Fig. 12 — CDF of wasted computation (irrecoverable)", "calcs",
			func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig12() })
	}
	if has("fig13") {
		printCDFPair(datasets, "Fig. 13 — CDF of wasted transmission (irrecoverable)", "bytes",
			func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig13() })
	}
	if has("table4") {
		printTable4(datasets)
	}
	if has("congestion") {
		printCongestion(utilResults)
	}
	if has("loss") {
		printLoss(worlds, *lossScen, seedpkg.Derive(*seed, "loss"), *check)
	}
	if has("ablation") {
		printAblation(names, *seed, *cases)
	}
	if has("netsim") {
		printNetsim(worlds, seedpkg.Derive(*seed, "netsim"))
	}
	if has("multiarea") {
		printMultiArea(worlds, seedpkg.Derive(*seed, "multiarea"))
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, datasets, fig11Series, utilResults, has); err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: csv: %v\n", err)
			os.Exit(1)
		}
	}
}

// printCongestion reports the congestion experiment: per-link
// utilization at heavy offered load before the failure (the calibrated
// operating point) and the worst post-recovery column observed across
// scenarios, per (topology, scheme).
func printCongestion(results []*traffic.Result) {
	fmt.Println("Congestion — link utilization before/after recovery (gravity traffic, heavy load)")
	fmt.Printf("%-10s %-12s %8s %8s | %8s %8s %8s | %9s\n",
		"Topology", "Scheme", "pre-peak", "pre-p50", "peak", "p99", "p50", "delivered")
	for _, r := range results {
		delivered := 100.0
		if r.Flows.Offered > 0 {
			delivered = 100 * r.Flows.Delivered / r.Flows.Offered
		}
		fmt.Printf("%-10s %-12s %8.3f %8.3f | %8.3f %8.3f %8.3f | %8.1f%%\n",
			r.Topology, r.Scheme, r.Pre.Peak, r.Pre.P50,
			r.Post.Peak, r.Post.P99, r.Post.P50, delivered)
	}
	fmt.Println()
}

func printAblation(names []string, seed int64, cases int) {
	fmt.Println("Ablations — design choices (DESIGN.md §6)")
	fmt.Println("termination rule: enclosure-verified vs the paper's literal rule")
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "Topology", "ver-opt%", "ver-p90ms", "pap-opt%", "pap-p90ms")
	for _, as := range names {
		r, err := sim.AblateTermination(as, seed, cases)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
			continue
		}
		fmt.Printf("%-10s %12.1f %12.0f %12.1f %12.0f\n", r.AS, r.VerifiedOptimal, r.VerifiedP90Ms, r.PaperOptimal, r.PaperP90Ms)
	}
	fmt.Println("\nconstraints 1-2: failure coverage and walk length (2x2 with termination)")
	fmt.Printf("%-10s | %10s %10s | %10s %10s\n", "", "verified", "", "paper", "")
	fmt.Printf("%-10s | %10s %10s | %10s %10s\n", "Topology", "con", "unc", "con", "unc")
	for _, as := range names {
		r, err := sim.AblateConstraints(as, seed, cases)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
			continue
		}
		fmt.Printf("%-10s | %5.1f%%/%3.0fh %5.1f%%/%3.0fh | %5.1f%%/%3.0fh %5.1f%%/%3.0fh\n", r.AS,
			r.VerifiedConstrained.Coverage, r.VerifiedConstrained.AvgWalkHops,
			r.VerifiedUnconstrained.Coverage, r.VerifiedUnconstrained.AvgWalkHops,
			r.PaperConstrained.Coverage, r.PaperConstrained.AvgWalkHops,
			r.PaperUnconstrained.Coverage, r.PaperUnconstrained.AvgWalkHops)
	}
	fmt.Println("\nMRC configuration count vs recovery rate")
	ks := []int{3, 5, 8, 12}
	fmt.Printf("%-10s", "Topology")
	for _, k := range ks {
		fmt.Printf(" %7s", fmt.Sprintf("k=%d", k))
	}
	fmt.Println()
	for _, as := range names {
		pts, err := sim.AblateMRCConfigs(as, seed, cases, ks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
			continue
		}
		fmt.Printf("%-10s", as)
		for _, p := range pts {
			fmt.Printf(" %6.1f%%", p.Recovery)
		}
		fmt.Println()
	}
	fmt.Println("\nweighted asymmetric link costs (Theorem 2 is cost-model independent)")
	fmt.Printf("%-10s %12s %12s %12s\n", "Topology", "recovery%", "optimal%", "fcp-rec%")
	for _, as := range names {
		r, err := sim.AblateWeightedCosts(as, seed, cases)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
			continue
		}
		fmt.Printf("%-10s %12.1f %12.1f %12.1f\n", r.AS, r.Recovery, r.Optimal, r.FCPRecovery)
	}
	fmt.Println()
}

// printMultiArea runs the Section III-E experiment: recovery across
// two simultaneous failure areas with chained initiators.
func printMultiArea(worlds []*sim.World, seed int64) {
	fmt.Println("Multiple failure areas (Section III-E) — chained recoveries")
	fmt.Printf("%-10s %10s %12s %10s %12s\n", "Topology", "attempts", "delivered", "chained", "SP calcs")
	for _, w := range worlds {
		res := sim.MultiArea(w, seed, 200)
		fmt.Printf("%-10s %10d %11.1f%% %10d %12.2f\n",
			res.AS, res.Attempts, res.DeliveredPercent(), res.Chained, res.AvgSPCalcs)
	}
	fmt.Println()
}

// printNetsim runs the discrete-event packet simulator on a handful of
// random failures per topology and reports delivery with and without
// RTR plus the mean delay of recovered packets.
func printNetsim(worlds []*sim.World, seed int64) {
	fmt.Println("Packet-level simulation (discrete events, tuned IGP timers)")
	fmt.Printf("%-10s %10s %12s %12s %14s\n", "Topology", "packets", "no-RTR del.", "RTR del.", "rec. delay")
	timers := igp.TunedTimers()
	for _, w := range worlds {
		rng := rand.New(rand.NewSource(seed))
		var sent, delWith, delWithout int
		var recDelay time.Duration
		var recRuns int
		for trial := 0; trial < 12; trial++ {
			sc := failure.RandomScenario(w.Topo, rng)
			if !sc.HasFailures() {
				continue
			}
			var flows []netsim.Flow
			n := w.Topo.G.NumNodes()
			for i := 0; i < 8; i++ {
				src := graph.NodeID(rng.Intn(n))
				dst := graph.NodeID(rng.Intn(n))
				if src == dst || sc.NodeDown(src) {
					continue
				}
				flows = append(flows, netsim.Flow{Src: src, Dst: dst, Interval: 25 * time.Millisecond})
			}
			if len(flows) == 0 {
				continue
			}
			cfg := netsim.Config{Flows: flows, Horizon: 600 * time.Millisecond, Timers: timers}
			st := w.Converged(sc)
			resWith := netsim.New(st, cfg).Run()
			cfg.DisableRTR = true
			resWithout := netsim.New(st, cfg).Run()
			sent += len(resWith.Fates)
			delWith += resWith.Delivered()
			delWithout += resWithout.Delivered()
			if d := resWith.MeanDelay(func(f netsim.PacketFate) bool { return f.Recovered }); d > 0 {
				recDelay += d
				recRuns++
			}
		}
		if sent == 0 {
			continue
		}
		avgDelay := time.Duration(0)
		if recRuns > 0 {
			avgDelay = recDelay / time.Duration(recRuns)
		}
		fmt.Printf("%-10s %10d %11.1f%% %11.1f%% %14v\n", w.Topo.Name, sent,
			100*float64(delWithout)/float64(sent), 100*float64(delWith)/float64(sent),
			avgDelay.Round(100*time.Microsecond))
	}
	fmt.Println()
}

func printLoss(worlds []*sim.World, scenarios int, seed int64, check bool) {
	fmt.Println("Convergence packet loss — RTR vs no recovery (classic IGP timers)")
	fmt.Printf("%-10s %14s %12s %14s %14s %8s\n",
		"Topology", "convergence", "failedPaths", "dropNoRec(M)", "dropRTR(M)", "saved")
	for _, w := range worlds {
		res := sim.PacketLoss(w, sim.LossConfig{
			Scenarios:        scenarios,
			PacketsPerSecond: 10000,
			Seed:             seed,
			Timers:           igp.ClassicTimers(),
		})
		if check {
			if vs := invariant.CheckLoss(res); len(vs) > 0 {
				fmt.Fprintf(os.Stderr, "rtrsim: %v\n", vs[0])
				os.Exit(1)
			}
		}
		fmt.Printf("%-10s %14v %12d %14.2f %14.2f %7.1f%%\n",
			res.AS, res.MeanConvergence.Round(time.Millisecond), res.FailedPaths,
			res.DroppedNoRecovery/1e6, res.DroppedWithRTR/1e6, res.SavedPercent)
	}
	fmt.Println()
}

func writeCSVs(dir string, datasets []*sim.Dataset, fig11Series map[string][]sim.Fig11Point, utilResults []*traffic.Result, has func(string) bool) error {
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if has("table3") && len(datasets) > 0 {
		rows := make([]sim.Table3Row, 0, len(datasets))
		for _, d := range datasets {
			rows = append(rows, d.Table3())
		}
		if err := write("table3.csv", func(w io.Writer) error { return report.WriteTable3(w, rows) }); err != nil {
			return err
		}
	}
	if has("table4") && len(datasets) > 0 {
		rows := make([]sim.Table4Row, 0, len(datasets))
		for _, d := range datasets {
			rows = append(rows, d.Table4())
		}
		if err := write("table4.csv", func(w io.Writer) error { return report.WriteTable4(w, rows) }); err != nil {
			return err
		}
	}
	type pairFn func(d *sim.Dataset) (*stats.CDF, *stats.CDF)
	pairs := []struct {
		id   string
		name string
		fn   pairFn
	}{
		{"fig8", "stretch", func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig8() }},
		{"fig9", "calcs", func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig9() }},
		{"fig12", "calcs", func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig12() }},
		{"fig13", "bytes", func(d *sim.Dataset) (*stats.CDF, *stats.CDF) { return d.Fig13() }},
	}
	for _, d := range datasets {
		as := d.World.Topo.Name
		if has("fig7") {
			cdf := d.Fig7()
			if err := write("fig7_"+as+".csv", func(w io.Writer) error { return report.WriteCDF(w, "duration_ms", cdf) }); err != nil {
				return err
			}
		}
		for _, p := range pairs {
			if !has(p.id) {
				continue
			}
			rtr, fcp := p.fn(d)
			name := p.id + "_" + as + ".csv"
			if err := write(name, func(w io.Writer) error {
				return report.WriteCDFPair(w, p.name, [2]string{"RTR", "FCP"}, [2]*stats.CDF{rtr, fcp})
			}); err != nil {
				return err
			}
		}
		if has("fig10") {
			pts := d.Fig10(time.Second, 10*time.Millisecond)
			if err := write("fig10_"+as+".csv", func(w io.Writer) error { return report.WriteTimeSeries(w, pts) }); err != nil {
				return err
			}
		}
	}
	if has("fig11") && fig11Series != nil {
		if err := write("fig11.csv", func(w io.Writer) error { return report.WriteFig11(w, fig11Series) }); err != nil {
			return err
		}
	}
	if has("congestion") && len(utilResults) > 0 {
		if err := write("congestion.csv", func(w io.Writer) error { return report.WriteUtil(w, utilResults) }); err != nil {
			return err
		}
	}
	return nil
}

func printTable2(names []string, seed int64) {
	fmt.Println("Table II — Summary of topologies used in simulation")
	fmt.Printf("%-10s %8s %8s %12s\n", "Topology", "#Nodes", "#Links", "#Crossings")
	for _, name := range names {
		topo := topology.GenerateAS(name, seed)
		ci := topology.BuildCrossIndex(topo)
		fmt.Printf("%-10s %8d %8d %12d\n", name, topo.G.NumNodes(), topo.G.NumLinks(), ci.NumCrossings())
	}
	fmt.Println()
}

func printFig7(ds []*sim.Dataset) {
	fmt.Println("Fig. 7 — CDF of the duration of the first phase (ms)")
	fmt.Printf("%-10s %8s %8s %8s %8s %8s\n", "Topology", "p50", "p90", "p99", "max", "<=75ms")
	for _, d := range ds {
		c := d.Fig7()
		s := c.Summarize()
		fmt.Printf("%-10s %8.1f %8.1f %8.1f %8.1f %7.1f%%\n",
			d.World.Topo.Name, s.P50, s.P90, s.P99, s.Max, 100*c.At(75))
	}
	fmt.Println()
}

func printTable3(ds []*sim.Dataset) {
	fmt.Println("Table III — Performance of RTR, FCP, and MRC in recoverable test cases")
	fmt.Printf("%-10s | %6s %6s %6s | %6s %6s %6s | %5s %5s %5s | %4s %4s\n",
		"", "RTR", "FCP", "MRC", "RTR", "FCP", "MRC", "RTR", "FCP", "MRC", "RTR", "FCP")
	fmt.Printf("%-10s | %20s | %20s | %17s | %9s\n",
		"Topology", "Recovery rate (%)", "Optimal rate (%)", "Max stretch", "Max calc")
	var rows []sim.Table3Row
	for _, d := range ds {
		rows = append(rows, d.Table3())
	}
	for _, r := range rows {
		fmt.Printf("%-10s | %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f | %5.1f %5.1f %5.1f | %4d %4d\n",
			r.AS, r.RTRRecovery, r.FCPRecovery, r.MRCRecovery,
			r.RTROptimal, r.FCPOptimal, r.MRCOptimal,
			r.RTRMaxStretch, r.FCPMaxStretch, r.MRCMaxStretch,
			r.RTRMaxCalcs, r.FCPMaxCalcs)
	}
	if len(rows) > 1 {
		var o sim.Table3Row
		o.AS = "Overall"
		for _, r := range rows {
			o.RTRRecovery += r.RTRRecovery
			o.FCPRecovery += r.FCPRecovery
			o.MRCRecovery += r.MRCRecovery
			o.RTROptimal += r.RTROptimal
			o.FCPOptimal += r.FCPOptimal
			o.MRCOptimal += r.MRCOptimal
			o.RTRMaxStretch = max(o.RTRMaxStretch, r.RTRMaxStretch)
			o.FCPMaxStretch = max(o.FCPMaxStretch, r.FCPMaxStretch)
			o.MRCMaxStretch = max(o.MRCMaxStretch, r.MRCMaxStretch)
			if r.RTRMaxCalcs > o.RTRMaxCalcs {
				o.RTRMaxCalcs = r.RTRMaxCalcs
			}
			if r.FCPMaxCalcs > o.FCPMaxCalcs {
				o.FCPMaxCalcs = r.FCPMaxCalcs
			}
		}
		n := float64(len(rows))
		fmt.Printf("%-10s | %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f | %5.1f %5.1f %5.1f | %4d %4d\n",
			o.AS, o.RTRRecovery/n, o.FCPRecovery/n, o.MRCRecovery/n,
			o.RTROptimal/n, o.FCPOptimal/n, o.MRCOptimal/n,
			o.RTRMaxStretch, o.FCPMaxStretch, o.MRCMaxStretch,
			o.RTRMaxCalcs, o.FCPMaxCalcs)
	}
	fmt.Println()
}

func printCDFPair(ds []*sim.Dataset, title, unit string, get func(*sim.Dataset) (*stats.CDF, *stats.CDF)) {
	fmt.Println(title)
	fmt.Printf("%-10s | %28s | %28s\n", "", "RTR ("+unit+")", "FCP ("+unit+")")
	fmt.Printf("%-10s | %8s %9s %9s | %8s %9s %9s\n", "Topology", "mean", "p90", "max", "mean", "p90", "max")
	for _, d := range ds {
		r, f := get(d)
		if r.N() == 0 || f.N() == 0 {
			fmt.Printf("%-10s | %28s | %28s\n", d.World.Topo.Name, "(empty)", "(empty)")
			continue
		}
		fmt.Printf("%-10s | %8.2f %9.2f %9.2f | %8.2f %9.2f %9.2f\n",
			d.World.Topo.Name, r.Mean(), r.Quantile(0.9), r.Max(), f.Mean(), f.Quantile(0.9), f.Max())
	}
	fmt.Println()
}

func printFig10(ds []*sim.Dataset) {
	fmt.Println("Fig. 10 — Average transmission overhead over the first second (bytes)")
	samples := []time.Duration{0, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond, time.Second}
	header := []string{"Topology", "proto"}
	for _, t := range samples {
		header = append(header, t.String())
	}
	fmt.Printf("%-10s %-5s", header[0], header[1])
	for _, h := range header[2:] {
		fmt.Printf(" %8s", h)
	}
	fmt.Println()
	for _, d := range ds {
		pts := d.Fig10(time.Second, 10*time.Millisecond)
		at := func(t time.Duration, rtr bool) float64 {
			idx := sort.Search(len(pts), func(i int) bool { return pts[i].T >= t })
			if idx >= len(pts) {
				idx = len(pts) - 1
			}
			if rtr {
				return pts[idx].RTRBytes
			}
			return pts[idx].FCPBytes
		}
		for _, proto := range []string{"RTR", "FCP"} {
			fmt.Printf("%-10s %-5s", d.World.Topo.Name, proto)
			for _, t := range samples {
				fmt.Printf(" %8.2f", at(t, proto == "RTR"))
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

func printFig11(series map[string][]sim.Fig11Point, names []string) {
	fmt.Println("Fig. 11 — Percentage of failed routing paths that are irrecoverable")
	fmt.Printf("%-10s", "radius")
	for _, r := range sim.DefaultRadii() {
		fmt.Printf(" %6.0f", r)
	}
	fmt.Println()
	for _, as := range names {
		fmt.Printf("%-10s", as)
		for _, p := range series[as] {
			fmt.Printf(" %5.1f%%", p.Percent)
		}
		fmt.Println()
	}
	fmt.Println()
}

func printTable4(ds []*sim.Dataset) {
	fmt.Println("Table IV — Wasted computation and wasted transmission (irrecoverable test cases)")
	fmt.Printf("%-10s | %9s %9s %9s %9s | %11s %11s %11s %11s\n",
		"Topology", "avgC RTR", "avgC FCP", "maxC RTR", "maxC FCP",
		"avgT RTR", "avgT FCP", "maxT RTR", "maxT FCP")
	var rows []sim.Table4Row
	for _, d := range ds {
		rows = append(rows, d.Table4())
	}
	for _, r := range rows {
		fmt.Printf("%-10s | %9.1f %9.1f %9.0f %9.0f | %11.1f %11.1f %11.0f %11.0f\n",
			r.AS, r.RTRAvgComp, r.FCPAvgComp, r.RTRMaxComp, r.FCPMaxComp,
			r.RTRAvgTrans, r.FCPAvgTrans, r.RTRMaxTrans, r.FCPMaxTrans)
	}
	if len(rows) > 1 {
		var compR, compF, transR, transF float64
		var maxCR, maxCF, maxTR, maxTF float64
		for _, r := range rows {
			compR += r.RTRAvgComp
			compF += r.FCPAvgComp
			transR += r.RTRAvgTrans
			transF += r.FCPAvgTrans
			maxCR = max(maxCR, r.RTRMaxComp)
			maxCF = max(maxCF, r.FCPMaxComp)
			maxTR = max(maxTR, r.RTRMaxTrans)
			maxTF = max(maxTF, r.FCPMaxTrans)
		}
		n := float64(len(rows))
		fmt.Printf("%-10s | %9.1f %9.1f %9.0f %9.0f | %11.1f %11.1f %11.0f %11.0f\n",
			"Overall", compR/n, compF/n, maxCR, maxCF, transR/n, transF/n, maxTR, maxTF)
		if compF > 0 && transF > 0 {
			fmt.Printf("RTR saves %.1f%% of computation and %.1f%% of transmission vs FCP\n",
				100*(1-compR/compF), 100*(1-transR/transF))
		}
	}
	fmt.Println()
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
