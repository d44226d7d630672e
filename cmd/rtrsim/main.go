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
// Experiments: table2 fig7 table3 fig8 fig9 fig10 fig11 fig12 fig13
// table4 congestion loss ablation netsim multiarea (and "all"). They
// print in that order. Pass -csv <dir> to also write machine-readable
// CSV files for plotting.
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
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/igp"
	"repro/internal/invariant"
	"repro/internal/netsim"
	"repro/internal/scheme"
	seedpkg "repro/internal/seed"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// need is the set of sweep outputs an experiment reads; zero for an
// experiment that runs outside the sweep.
type need int

const (
	needCases need = 1 << iota // per-topology case datasets
	needFig11                  // the Fig. 11 radius curves
	needUtil                   // the congestion measurements
)

// inputs is what every experiment reads: the worlds rtrsim built (in
// -as order), the sweep outputs the selected experiments need, and the
// flags the experiments outside the sweep take.
type inputs struct {
	worlds        []*sim.World
	datasets      []*sim.Dataset
	fig11         map[string][]sim.Fig11Point
	util          []*traffic.Result
	seed          int64
	cases         int
	lossScenarios int
	check         bool
}

// csvFile is one CSV file of an experiment, named <name><suffix>.csv.
type csvFile struct {
	suffix string
	header []string
	rows   [][]string
}

// experiment is one -exp entry: its name, the sweep output it needs,
// its stdout printer, and (optionally) the CSV files it writes.
type experiment struct {
	name  string
	needs need
	print func(in *inputs) error
	csv   func(in *inputs) []csvFile
}

// experiments is every name -exp accepts besides "all", in stdout
// order. The flag's help text and validation, the sweep spec, stdout
// and -csv all read this table, and a test holds the package comment's
// list to it.
var experiments = []experiment{
	{"table2", 0, printTable2, nil},
	{"fig7", needCases, printFig7, perDataset([]string{"duration_ms", "cdf"},
		func(d *sim.Dataset) [][]string { return cdfRows(d.Fig7()) })},
	{"table3", needCases, printTable3, table3CSV},
	cdfPair("fig8", "Fig. 8 — CDF of stretch of recovery paths", "stretch", (*sim.Dataset).Fig8),
	cdfPair("fig9", "Fig. 9 — CDF of shortest-path calculations (recoverable)", "calcs", (*sim.Dataset).Fig9),
	{"fig10", needCases, printFig10, perDataset([]string{"time_ms", "rtr_bytes", "fcp_bytes"}, fig10Rows)},
	{"fig11", needFig11, printFig11, fig11CSV},
	cdfPair("fig12", "Fig. 12 — CDF of wasted computation (irrecoverable)", "calcs", (*sim.Dataset).Fig12),
	cdfPair("fig13", "Fig. 13 — CDF of wasted transmission (irrecoverable)", "bytes", (*sim.Dataset).Fig13),
	{"table4", needCases, printTable4, table4CSV},
	{"congestion", needUtil, printCongestion, congestionCSV},
	{"loss", 0, printLoss, nil},
	{"ablation", 0, printAblation, nil},
	{"netsim", 0, printNetsim, nil},
	{"multiarea", 0, printMultiArea, nil},
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func main() { os.Exit(run()) }

// run is the whole command. It returns the exit status rather than
// calling os.Exit so the deferred profile writers run on every path:
// 0 on success, 1 on an error, 2 on an interrupted sweep.
func run() int {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames(), ", ")+", or all")
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
		if e != "" && e != "all" && !slices.Contains(experimentNames(), e) {
			return fail(fmt.Errorf("-exp: unknown experiment %q (want %s, or all)", e, strings.Join(experimentNames(), ", ")))
		}
		want[e] = true
	}
	var selected []experiment
	var needs need
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			selected = append(selected, e)
			needs |= e.needs
		}
	}
	names := topology.ASNames()
	if *asFlag != "all" {
		known := names
		names = nil
		for _, name := range strings.Split(*asFlag, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(known, name) {
				return fail(fmt.Errorf("-as: unknown topology %q (want %s, or all)", name, strings.Join(known, ", ")))
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
			return fail(fmt.Errorf("-scheme: %w", err))
		}
		utilSchemes = append(utilSchemes, name)
	}
	if *resume && *stateDir == "" {
		return fail(errors.New("-resume requires -state"))
	}
	if _, err := failure.ParseSpecOrDefault(*failSpec); err != nil {
		return fail(err)
	}

	// Ctrl-C cancels the sweep context: in-flight shards finish and
	// are checkpointed, queued shards never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC()
			f, err := os.Create(*memProfile)
			if err == nil {
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtrsim: memprofile: %v\n", err)
			}
		}()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(fmt.Errorf("csv: %w", err))
		}
	}

	in := &inputs{seed: *seed, cases: *cases, lossScenarios: *lossScen, check: *check}
	worldsByName := map[string]*sim.World{}
	for _, name := range names {
		w, err := sim.NewWorld(name, *seed)
		if err != nil {
			return fail(err)
		}
		in.worlds = append(in.worlds, w)
		worldsByName[name] = w
	}

	// Every sweep output the selected experiments need runs as one
	// sharded, checkpointed sweep; every shard seeds its RNG from
	// (seed, shard key), so the merged output does not depend on
	// -workers or on interrupt/resume boundaries.
	if needs != 0 {
		spec := sweep.Spec{BaseSeed: *seed, Topologies: names, BlockCases: *blockSize, Check: *check, Failure: *failSpec}
		if needs&needCases != 0 {
			spec.Recoverable, spec.Irrecoverable = *cases, *cases
		}
		if needs&needFig11 != 0 {
			spec.Fig11Radii = sim.DefaultRadii()
			spec.Fig11Areas = *fig11Area
		}
		if needs&needUtil != 0 {
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
			return fail(err)
		}
		if res.Interrupted {
			next := "progress not kept (no -state)"
			if *stateDir != "" {
				next = "rerun with -resume -state " + *stateDir + " to continue"
			}
			fmt.Fprintf(os.Stderr, "rtrsim: interrupted after %d/%d shards; %s\n", len(res.Results), len(res.Plan), next)
			return 2
		}
		if needs&needCases != 0 {
			byName, err := res.Datasets(worldsByName)
			if err != nil {
				return fail(err)
			}
			for _, w := range in.worlds {
				d := byName[w.Topo.Name]
				fmt.Fprintf(os.Stderr, "rtrsim: dataset %s (%d+%d cases)\n",
					w.Topo.Name, len(d.Rec), len(d.Irr))
				in.datasets = append(in.datasets, d)
			}
		}
		if needs&needFig11 != 0 {
			if in.fig11, err = res.Fig11(); err != nil {
				return fail(err)
			}
		}
		if needs&needUtil != 0 {
			if in.util, err = res.Utils(); err != nil {
				return fail(err)
			}
		}
	}

	for _, e := range selected {
		if err := e.print(in); err != nil {
			return fail(err)
		}
	}
	if *csvDir == "" {
		return 0
	}
	for _, e := range selected {
		if e.csv == nil {
			continue
		}
		for _, f := range e.csv(in) {
			if err := writeCSV(*csvDir, e.name+f.suffix+".csv", f.header, f.rows); err != nil {
				return fail(fmt.Errorf("csv: %w", err))
			}
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "rtrsim: %v\n", err)
	return 1
}

// writeCSV writes one CSV file: a header row, then the data rows.
func writeCSV(dir, file string, header []string, rows [][]string) error {
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(append([][]string{header}, rows...)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// perDataset makes a CSV builder that writes one file per topology,
// <name>_<AS>.csv, with the given header.
func perDataset(header []string, rows func(d *sim.Dataset) [][]string) func(in *inputs) []csvFile {
	return func(in *inputs) []csvFile {
		out := make([]csvFile, len(in.datasets))
		for i, d := range in.datasets {
			out[i] = csvFile{"_" + d.World.Topo.Name, header, rows(d)}
		}
		return out
	}
}

// cdfRows emits a CDF as (value, fraction) step points, each row led
// by the given series columns.
func cdfRows(c *stats.CDF, series ...string) [][]string {
	var rows [][]string
	for _, p := range c.Points() {
		rows = append(rows, append(append([]string(nil), series...), ftoa(p[0]), ftoa(p[1])))
	}
	return rows
}

// cdfPair is the entry of one RTR-vs-FCP CDF figure: a summary table
// on stdout and, per topology, both CDFs as series,value,cdf rows.
func cdfPair(name, title, unit string, get func(*sim.Dataset) (*stats.CDF, *stats.CDF)) experiment {
	return experiment{name, needCases,
		func(in *inputs) error {
			fmt.Println(title)
			fmt.Printf("%-10s | %28s | %28s\n", "", "RTR ("+unit+")", "FCP ("+unit+")")
			fmt.Printf("%-10s | %8s %9s %9s | %8s %9s %9s\n", "Topology", "mean", "p90", "max", "mean", "p90", "max")
			for _, d := range in.datasets {
				r, f := get(d)
				if r.N() == 0 || f.N() == 0 {
					fmt.Printf("%-10s | %28s | %28s\n", d.World.Topo.Name, "(empty)", "(empty)")
					continue
				}
				fmt.Printf("%-10s | %8.2f %9.2f %9.2f | %8.2f %9.2f %9.2f\n",
					d.World.Topo.Name, r.Mean(), r.Quantile(0.9), r.Max(), f.Mean(), f.Quantile(0.9), f.Max())
			}
			fmt.Println()
			return nil
		},
		perDataset([]string{"series", unit, "cdf"}, func(d *sim.Dataset) [][]string {
			rtr, fcp := get(d)
			return append(cdfRows(rtr, "RTR"), cdfRows(fcp, "FCP")...)
		}),
	}
}

func fig10Rows(d *sim.Dataset) [][]string {
	var rows [][]string
	for _, p := range d.Fig10(time.Second, 10*time.Millisecond) {
		rows = append(rows, []string{ftoa(float64(p.T) / float64(time.Millisecond)), ftoa(p.RTRBytes), ftoa(p.FCPBytes)})
	}
	return rows
}

func table3CSV(in *inputs) []csvFile {
	f := csvFile{header: strings.Split("as,rtr_recovery,fcp_recovery,mrc_recovery,rtr_optimal,fcp_optimal,mrc_optimal,"+
		"rtr_max_stretch,fcp_max_stretch,mrc_max_stretch,rtr_max_calcs,fcp_max_calcs", ",")}
	for _, d := range in.datasets {
		r := d.Table3()
		f.rows = append(f.rows, []string{r.AS,
			ftoa(r.RTRRecovery), ftoa(r.FCPRecovery), ftoa(r.MRCRecovery),
			ftoa(r.RTROptimal), ftoa(r.FCPOptimal), ftoa(r.MRCOptimal),
			ftoa(r.RTRMaxStretch), ftoa(r.FCPMaxStretch), ftoa(r.MRCMaxStretch),
			strconv.Itoa(r.RTRMaxCalcs), strconv.Itoa(r.FCPMaxCalcs)})
	}
	return []csvFile{f}
}

func table4CSV(in *inputs) []csvFile {
	f := csvFile{header: strings.Split("as,rtr_avg_comp,fcp_avg_comp,rtr_max_comp,fcp_max_comp,"+
		"rtr_avg_trans,fcp_avg_trans,rtr_max_trans,fcp_max_trans", ",")}
	for _, d := range in.datasets {
		r := d.Table4()
		f.rows = append(f.rows, []string{r.AS,
			ftoa(r.RTRAvgComp), ftoa(r.FCPAvgComp), ftoa(r.RTRMaxComp), ftoa(r.FCPMaxComp),
			ftoa(r.RTRAvgTrans), ftoa(r.FCPAvgTrans), ftoa(r.RTRMaxTrans), ftoa(r.FCPMaxTrans)})
	}
	return []csvFile{f}
}

// fig11CSV writes the radius sweep as long-format rows, topologies in
// -as order like the printed table.
func fig11CSV(in *inputs) []csvFile {
	f := csvFile{header: []string{"as", "radius", "irrecoverable_pct", "failed_paths"}}
	for _, w := range in.worlds {
		as := w.Topo.Name
		for _, p := range in.fig11[as] {
			f.rows = append(f.rows, []string{as, ftoa(p.Radius), ftoa(p.Percent), strconv.Itoa(p.Failed)})
		}
	}
	return []csvFile{f}
}

// congestionCSV writes one row per (topology, scheme): the pre-failure
// calibrated column, the worst post-recovery column across scenarios,
// and the flow-conservation totals. No schemes, no file.
func congestionCSV(in *inputs) []csvFile {
	if len(in.util) == 0 {
		return nil
	}
	f := csvFile{header: strings.Split("as,scheme,pairs,scenarios,pre_peak,pre_p99,pre_p50,pre_mean,"+
		"post_peak,post_p99,post_p50,post_mean,offered,delivered,dropped", ",")}
	for _, r := range in.util {
		f.rows = append(f.rows, []string{r.Topology, r.Scheme, strconv.Itoa(r.Pairs), strconv.Itoa(r.Scenarios),
			ftoa(r.Pre.Peak), ftoa(r.Pre.P99), ftoa(r.Pre.P50), ftoa(r.Pre.Mean),
			ftoa(r.Post.Peak), ftoa(r.Post.P99), ftoa(r.Post.P50), ftoa(r.Post.Mean),
			ftoa(r.Flows.Offered), ftoa(r.Flows.Delivered), ftoa(r.Flows.Dropped)})
	}
	return []csvFile{f}
}

// printCongestion reports the congestion experiment: per-link
// utilization at heavy offered load before the failure (the calibrated
// operating point) and the worst post-recovery column observed across
// scenarios, per (topology, scheme).
func printCongestion(in *inputs) error {
	fmt.Println("Congestion — link utilization before/after recovery (gravity traffic, heavy load)")
	fmt.Printf("%-10s %-12s %8s %8s | %8s %8s %8s | %9s\n",
		"Topology", "Scheme", "pre-peak", "pre-p50", "peak", "p99", "p50", "delivered")
	for _, r := range in.util {
		delivered := 100.0
		if r.Flows.Offered > 0 {
			delivered = 100 * r.Flows.Delivered / r.Flows.Offered
		}
		fmt.Printf("%-10s %-12s %8.3f %8.3f | %8.3f %8.3f %8.3f | %8.1f%%\n",
			r.Topology, r.Scheme, r.Pre.Peak, r.Pre.P50,
			r.Post.Peak, r.Post.P99, r.Post.P50, delivered)
	}
	fmt.Println()
	return nil
}

// printAblation runs the four design-choice ablations on rtrsim's own
// worlds, plus one paper-termination world per topology that the
// termination and constraint ablations share.
func printAblation(in *inputs) error {
	paper := make([]*sim.World, len(in.worlds))
	for i, w := range in.worlds {
		var err error
		if paper[i], err = sim.NewWorld(w.Topo.Name, in.seed, core.WithPaperTermination()); err != nil {
			return err
		}
	}
	fmt.Println("Ablations — design choices (DESIGN.md §6)")
	fmt.Println("termination rule: enclosure-verified vs the paper's literal rule")
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "Topology", "ver-opt%", "ver-p90ms", "pap-opt%", "pap-p90ms")
	for i, w := range in.worlds {
		r := sim.AblateTermination(w, paper[i], in.seed, in.cases)
		fmt.Printf("%-10s %12.1f %12.0f %12.1f %12.0f\n", r.AS, r.VerifiedOptimal, r.VerifiedP90Ms, r.PaperOptimal, r.PaperP90Ms)
	}
	fmt.Println("\nconstraints 1-2: failure coverage and walk length (2x2 with termination)")
	fmt.Printf("%-10s | %10s %10s | %10s %10s\n", "", "verified", "", "paper", "")
	fmt.Printf("%-10s | %10s %10s | %10s %10s\n", "Topology", "con", "unc", "con", "unc")
	for i, w := range in.worlds {
		r := sim.AblateConstraints(w, paper[i], in.seed, in.cases)
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
	for _, w := range in.worlds {
		pts, err := sim.AblateMRCConfigs(w, in.seed, in.cases, ks)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s", w.Topo.Name)
		for _, p := range pts {
			fmt.Printf(" %6.1f%%", p.Recovery)
		}
		fmt.Println()
	}
	fmt.Println("\nweighted asymmetric link costs (Theorem 2 is cost-model independent)")
	fmt.Printf("%-10s %12s %12s %12s\n", "Topology", "recovery%", "optimal%", "fcp-rec%")
	for _, w := range in.worlds {
		r, err := sim.AblateWeightedCosts(w, in.seed, in.cases)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %12.1f %12.1f %12.1f\n", r.AS, r.Recovery, r.Optimal, r.FCPRecovery)
	}
	fmt.Println()
	return nil
}

// printMultiArea runs the Section III-E experiment: recovery across
// two simultaneous failure areas with chained initiators.
func printMultiArea(in *inputs) error {
	fmt.Println("Multiple failure areas (Section III-E) — chained recoveries")
	fmt.Printf("%-10s %10s %12s %10s %12s\n", "Topology", "attempts", "delivered", "chained", "SP calcs")
	for _, w := range in.worlds {
		res := sim.MultiArea(w, seedpkg.Derive(in.seed, "multiarea"), 200)
		fmt.Printf("%-10s %10d %11.1f%% %10d %12.2f\n",
			res.AS, res.Attempts, res.DeliveredPercent(), res.Chained, res.AvgSPCalcs)
	}
	fmt.Println()
	return nil
}

// printNetsim runs the discrete-event packet simulator on a handful of
// random failures per topology and reports delivery with and without
// RTR plus the mean delay of recovered packets.
func printNetsim(in *inputs) error {
	fmt.Println("Packet-level simulation (discrete events, tuned IGP timers)")
	fmt.Printf("%-10s %10s %12s %12s %14s\n", "Topology", "packets", "no-RTR del.", "RTR del.", "rec. delay")
	timers := igp.TunedTimers()
	for _, w := range in.worlds {
		rng := rand.New(rand.NewSource(seedpkg.Derive(in.seed, "netsim")))
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
	return nil
}

func printLoss(in *inputs) error {
	fmt.Println("Convergence packet loss — RTR vs no recovery (classic IGP timers)")
	fmt.Printf("%-10s %14s %12s %14s %14s %8s\n",
		"Topology", "convergence", "failedPaths", "dropNoRec(M)", "dropRTR(M)", "saved")
	for _, w := range in.worlds {
		res := sim.PacketLoss(w, sim.LossConfig{
			Scenarios:        in.lossScenarios,
			PacketsPerSecond: 10000,
			Seed:             seedpkg.Derive(in.seed, "loss"),
			Timers:           igp.ClassicTimers(),
		})
		if in.check {
			if vs := invariant.CheckLoss(res); len(vs) > 0 {
				return vs[0]
			}
		}
		fmt.Printf("%-10s %14v %12d %14.2f %14.2f %7.1f%%\n",
			res.AS, res.MeanConvergence.Round(time.Millisecond), res.FailedPaths,
			res.DroppedNoRecovery/1e6, res.DroppedWithRTR/1e6, res.SavedPercent)
	}
	fmt.Println()
	return nil
}

func printTable2(in *inputs) error {
	fmt.Println("Table II — Summary of topologies used in simulation")
	fmt.Printf("%-10s %8s %8s %12s\n", "Topology", "#Nodes", "#Links", "#Crossings")
	for _, w := range in.worlds {
		fmt.Printf("%-10s %8d %8d %12d\n", w.Topo.Name, w.Topo.G.NumNodes(), w.Topo.G.NumLinks(), w.CI.NumCrossings())
	}
	fmt.Println()
	return nil
}

func printFig7(in *inputs) error {
	fmt.Println("Fig. 7 — CDF of the duration of the first phase (ms)")
	fmt.Printf("%-10s %8s %8s %8s %8s %8s\n", "Topology", "p50", "p90", "p99", "max", "<=75ms")
	for _, d := range in.datasets {
		c := d.Fig7()
		s := c.Summarize()
		fmt.Printf("%-10s %8.1f %8.1f %8.1f %8.1f %7.1f%%\n",
			d.World.Topo.Name, s.P50, s.P90, s.P99, s.Max, 100*c.At(75))
	}
	fmt.Println()
	return nil
}

func printTable3(in *inputs) error {
	fmt.Println("Table III — Performance of RTR, FCP, and MRC in recoverable test cases")
	fmt.Printf("%-10s | %6s %6s %6s | %6s %6s %6s | %5s %5s %5s | %4s %4s\n",
		"", "RTR", "FCP", "MRC", "RTR", "FCP", "MRC", "RTR", "FCP", "MRC", "RTR", "FCP")
	fmt.Printf("%-10s | %20s | %20s | %17s | %9s\n",
		"Topology", "Recovery rate (%)", "Optimal rate (%)", "Max stretch", "Max calc")
	row := func(r sim.Table3Row) {
		fmt.Printf("%-10s | %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f | %5.1f %5.1f %5.1f | %4d %4d\n",
			r.AS, r.RTRRecovery, r.FCPRecovery, r.MRCRecovery,
			r.RTROptimal, r.FCPOptimal, r.MRCOptimal,
			r.RTRMaxStretch, r.FCPMaxStretch, r.MRCMaxStretch,
			r.RTRMaxCalcs, r.FCPMaxCalcs)
	}
	o := sim.Table3Row{AS: "Overall"}
	for _, d := range in.datasets {
		r := d.Table3()
		row(r)
		o.RTRRecovery += r.RTRRecovery
		o.FCPRecovery += r.FCPRecovery
		o.MRCRecovery += r.MRCRecovery
		o.RTROptimal += r.RTROptimal
		o.FCPOptimal += r.FCPOptimal
		o.MRCOptimal += r.MRCOptimal
		o.RTRMaxStretch = max(o.RTRMaxStretch, r.RTRMaxStretch)
		o.FCPMaxStretch = max(o.FCPMaxStretch, r.FCPMaxStretch)
		o.MRCMaxStretch = max(o.MRCMaxStretch, r.MRCMaxStretch)
		o.RTRMaxCalcs = max(o.RTRMaxCalcs, r.RTRMaxCalcs)
		o.FCPMaxCalcs = max(o.FCPMaxCalcs, r.FCPMaxCalcs)
	}
	if len(in.datasets) > 1 {
		n := float64(len(in.datasets))
		o.RTRRecovery, o.FCPRecovery, o.MRCRecovery = o.RTRRecovery/n, o.FCPRecovery/n, o.MRCRecovery/n
		o.RTROptimal, o.FCPOptimal, o.MRCOptimal = o.RTROptimal/n, o.FCPOptimal/n, o.MRCOptimal/n
		row(o)
	}
	fmt.Println()
	return nil
}

func printFig10(in *inputs) error {
	fmt.Println("Fig. 10 — Average transmission overhead over the first second (bytes)")
	samples := []time.Duration{0, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond, time.Second}
	fmt.Printf("%-10s %-5s", "Topology", "proto")
	for _, t := range samples {
		fmt.Printf(" %8s", t.String())
	}
	fmt.Println()
	for _, d := range in.datasets {
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
	return nil
}

func printFig11(in *inputs) error {
	fmt.Println("Fig. 11 — Percentage of failed routing paths that are irrecoverable")
	fmt.Printf("%-10s", "radius")
	for _, r := range sim.DefaultRadii() {
		fmt.Printf(" %6.0f", r)
	}
	fmt.Println()
	for _, w := range in.worlds {
		fmt.Printf("%-10s", w.Topo.Name)
		for _, p := range in.fig11[w.Topo.Name] {
			fmt.Printf(" %5.1f%%", p.Percent)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func printTable4(in *inputs) error {
	fmt.Println("Table IV — Wasted computation and wasted transmission (irrecoverable test cases)")
	fmt.Printf("%-10s | %9s %9s %9s %9s | %11s %11s %11s %11s\n",
		"Topology", "avgC RTR", "avgC FCP", "maxC RTR", "maxC FCP",
		"avgT RTR", "avgT FCP", "maxT RTR", "maxT FCP")
	row := func(r sim.Table4Row) {
		fmt.Printf("%-10s | %9.1f %9.1f %9.0f %9.0f | %11.1f %11.1f %11.0f %11.0f\n",
			r.AS, r.RTRAvgComp, r.FCPAvgComp, r.RTRMaxComp, r.FCPMaxComp,
			r.RTRAvgTrans, r.FCPAvgTrans, r.RTRMaxTrans, r.FCPMaxTrans)
	}
	o := sim.Table4Row{AS: "Overall"}
	for _, d := range in.datasets {
		r := d.Table4()
		row(r)
		o.RTRAvgComp += r.RTRAvgComp
		o.FCPAvgComp += r.FCPAvgComp
		o.RTRAvgTrans += r.RTRAvgTrans
		o.FCPAvgTrans += r.FCPAvgTrans
		o.RTRMaxComp = max(o.RTRMaxComp, r.RTRMaxComp)
		o.FCPMaxComp = max(o.FCPMaxComp, r.FCPMaxComp)
		o.RTRMaxTrans = max(o.RTRMaxTrans, r.RTRMaxTrans)
		o.FCPMaxTrans = max(o.FCPMaxTrans, r.FCPMaxTrans)
	}
	if len(in.datasets) > 1 {
		compR, compF, transR, transF := o.RTRAvgComp, o.FCPAvgComp, o.RTRAvgTrans, o.FCPAvgTrans
		n := float64(len(in.datasets))
		o.RTRAvgComp, o.FCPAvgComp, o.RTRAvgTrans, o.FCPAvgTrans = compR/n, compF/n, transR/n, transF/n
		row(o)
		if compF > 0 && transF > 0 {
			fmt.Printf("RTR saves %.1f%% of computation and %.1f%% of transmission vs FCP\n",
				100*(1-compR/compF), 100*(1-transR/transF))
		}
	}
	fmt.Println()
	return nil
}
