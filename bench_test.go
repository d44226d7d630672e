// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each
// benchmark measures the cost of producing its artifact and reports
// the artifact's headline numbers as custom metrics, so
// `go test -bench=. -benchmem` both exercises and summarizes the
// reproduction. cmd/rtrsim prints the full paper-style tables.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/igp"
	"repro/internal/mrc"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// benchCases sizes the benchmark workload: large enough for stable
// rates, small enough that the whole suite runs in well under a
// minute per iteration.
const benchCases = 400

var (
	benchOnce  sync.Once
	benchData  *sim.Dataset // AS1239 analogue dataset shared by figure benches
	benchList  []*sim.Case  // the raw cases behind benchData, for case-level benches
	benchWorld *sim.World
	benchErr   error
)

func buildBenchData(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		if benchWorld, benchErr = sim.NewWorld("AS1239", 11); benchErr == nil {
			rng := rand.New(rand.NewSource(42))
			rec, irr := sim.CollectBoth(benchWorld, rng, benchCases, benchCases)
			benchList = append(append([]*sim.Case(nil), rec...), irr...)
			benchData = &sim.Dataset{
				World: benchWorld,
				Rec:   sim.Records(sim.RunAll(benchWorld, rec)),
				Irr:   sim.Records(sim.RunAll(benchWorld, irr)),
			}
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

func sharedDataset(b *testing.B) *sim.Dataset {
	b.Helper()
	buildBenchData(b)
	return benchData
}

func sharedCases(b *testing.B) (*sim.World, []*sim.Case) {
	b.Helper()
	buildBenchData(b)
	return benchWorld, benchList
}

// BenchmarkTable1WalkTrace reproduces Table I: the full phase-1 walk
// plus phase-2 recovery on the paper's Fig. 6 worked example.
func BenchmarkTable1WalkTrace(b *testing.B) {
	topo := topology.PaperExample()
	ci := topology.BuildCrossIndex(topo)
	r := core.New(topo, ci)
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	lv := routing.NewLocalView(topo, sc)
	trigger := topology.PaperLink(topo, 6, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := r.NewSession(lv, topology.PaperNode(6))
		if err != nil {
			b.Fatal(err)
		}
		col, err := sess.Collect(trigger)
		if err != nil {
			b.Fatal(err)
		}
		if col.Walk.Hops() != 11 {
			b.Fatalf("Table I walk has %d hops, want 11", col.Walk.Hops())
		}
		if _, ok := sess.RecoveryPath(topology.PaperNode(17)); !ok {
			b.Fatal("v17 must be recoverable")
		}
	}
}

// BenchmarkTable2TopologySynthesis regenerates Table II: all eight
// ISP-like topologies with their node/link counts.
func BenchmarkTable2TopologySynthesis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range topology.TableII() {
			topo, err := topology.Generate(p, rand.New(rand.NewSource(int64(i)+1)))
			if err != nil {
				b.Fatal(err)
			}
			if topo.G.NumNodes() != p.Nodes || topo.G.NumLinks() != p.Links {
				b.Fatalf("%s: %d/%d nodes/links, want %d/%d",
					p.Name, topo.G.NumNodes(), topo.G.NumLinks(), p.Nodes, p.Links)
			}
		}
	}
}

// BenchmarkFig7FirstPhaseDuration regenerates Fig. 7's CDF of
// first-phase durations.
func BenchmarkFig7FirstPhaseDuration(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var p90 float64
	for i := 0; i < b.N; i++ {
		cdf := d.Fig7()
		p90 = cdf.Quantile(0.9)
	}
	b.ReportMetric(p90, "p90-ms")
}

// BenchmarkTable3Recoverable regenerates Table III's row for the
// shared topology and reports the headline rates.
func BenchmarkTable3Recoverable(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var row sim.Table3Row
	for i := 0; i < b.N; i++ {
		row = d.Table3()
	}
	b.ReportMetric(row.RTROptimal, "rtr-optimal-%")
	b.ReportMetric(row.FCPOptimal, "fcp-optimal-%")
	b.ReportMetric(row.MRCRecovery, "mrc-recovery-%")
}

// BenchmarkFig8StretchCDF regenerates Fig. 8's stretch CDFs.
func BenchmarkFig8StretchCDF(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var rtrMax, fcpMax float64
	for i := 0; i < b.N; i++ {
		rtr, fcp := d.Fig8()
		rtrMax, fcpMax = rtr.Max(), fcp.Max()
	}
	b.ReportMetric(rtrMax, "rtr-max-stretch")
	b.ReportMetric(fcpMax, "fcp-max-stretch")
}

// BenchmarkFig9ComputationCDF regenerates Fig. 9's CDFs of shortest
// path calculations on recoverable cases.
func BenchmarkFig9ComputationCDF(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var rtrMean, fcpMean float64
	for i := 0; i < b.N; i++ {
		rtr, fcp := d.Fig9()
		rtrMean, fcpMean = rtr.Mean(), fcp.Mean()
	}
	b.ReportMetric(rtrMean, "rtr-calcs")
	b.ReportMetric(fcpMean, "fcp-calcs")
}

// BenchmarkFig10TransmissionOverTime regenerates Fig. 10's
// transmission-overhead time series over the first second.
func BenchmarkFig10TransmissionOverTime(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var steadyRTR, steadyFCP float64
	for i := 0; i < b.N; i++ {
		pts := d.Fig10(time.Second, 10*time.Millisecond)
		last := pts[len(pts)-1]
		steadyRTR, steadyFCP = last.RTRBytes, last.FCPBytes
	}
	b.ReportMetric(steadyRTR, "rtr-steady-B")
	b.ReportMetric(steadyFCP, "fcp-steady-B")
}

// BenchmarkFig11IrrecoverableVsRadius regenerates a compressed Fig. 11
// sweep (three radii, fewer areas than the paper's 1000 per radius)
// through the sweep engine's Fig. 11 shards, as rtrsim runs it.
func BenchmarkFig11IrrecoverableVsRadius(b *testing.B) {
	w, err := sim.NewWorld("AS1239", 11)
	if err != nil {
		b.Fatal(err)
	}
	worlds := map[string]*sim.World{"AS1239": w}
	b.ResetTimer()
	var atMin, atMax float64
	for i := 0; i < b.N; i++ {
		eng := &sweep.Engine{Spec: sweep.Spec{
			BaseSeed:   int64(i) + 7,
			Topologies: []string{"AS1239"},
			Fig11Radii: []float64{20, 160, 300},
			Fig11Areas: 20,
		}, Worlds: worlds, Workers: 1}
		res, err := eng.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		series, err := res.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		pts := series["AS1239"]
		atMin, atMax = pts[0].Percent, pts[2].Percent
	}
	b.ReportMetric(atMin, "irrec-%-r20")
	b.ReportMetric(atMax, "irrec-%-r300")
}

// BenchmarkFig12WastedComputation regenerates Fig. 12's CDFs of wasted
// computation on irrecoverable cases.
func BenchmarkFig12WastedComputation(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var rtrMax, fcpMean float64
	for i := 0; i < b.N; i++ {
		rtr, fcp := d.Fig12()
		rtrMax, fcpMean = rtr.Max(), fcp.Mean()
	}
	b.ReportMetric(rtrMax, "rtr-max-calcs")
	b.ReportMetric(fcpMean, "fcp-avg-calcs")
}

// BenchmarkFig13WastedTransmission regenerates Fig. 13's CDFs of
// wasted transmission on irrecoverable cases.
func BenchmarkFig13WastedTransmission(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var rtrMean, fcpMean float64
	for i := 0; i < b.N; i++ {
		rtr, fcp := d.Fig13()
		rtrMean, fcpMean = rtr.Mean(), fcp.Mean()
	}
	b.ReportMetric(rtrMean, "rtr-avg-B")
	b.ReportMetric(fcpMean, "fcp-avg-B")
}

// BenchmarkTable4Irrecoverable regenerates Table IV's row and reports
// the paper's headline savings.
func BenchmarkTable4Irrecoverable(b *testing.B) {
	d := sharedDataset(b)
	b.ResetTimer()
	var row sim.Table4Row
	for i := 0; i < b.N; i++ {
		row = d.Table4()
	}
	if row.FCPAvgComp > 0 {
		b.ReportMetric(100*(1-row.RTRAvgComp/row.FCPAvgComp), "comp-saved-%")
	}
	if row.FCPAvgTrans > 0 {
		b.ReportMetric(100*(1-row.RTRAvgTrans/row.FCPAvgTrans), "trans-saved-%")
	}
}

// BenchmarkDatasetBuild measures the end-to-end cost of generating and
// running a full per-topology dataset (case generation + all three
// protocols), the unit of work behind Tables III/IV and Figs. 7-13.
func BenchmarkDatasetBuild(b *testing.B) {
	w, err := sim.NewWorld("AS1239", 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, irr := sim.CollectBoth(w, rand.New(rand.NewSource(int64(i)+1)), 100, 100)
		sim.Records(sim.RunAll(w, rec))
		sim.Records(sim.RunAll(w, irr))
	}
}

// BenchmarkAblationTermination quantifies the enclosure-verified
// termination against the paper's literal rule (DESIGN.md §6): same
// workload, two engines, reported as optimal recovery rates.
func BenchmarkAblationTermination(b *testing.B) {
	build := func(opts ...core.Option) (*sim.World, []*sim.Case) {
		w, err := sim.NewWorld("AS1239", 11, opts...)
		if err != nil {
			b.Fatal(err)
		}
		cases := sim.CollectCases(w, rand.New(rand.NewSource(5)), benchCases, true)
		return w, cases
	}
	verified, verCases := build()
	paper, papCases := build(core.WithPaperTermination())
	b.ResetTimer()
	var verOpt, papOpt float64
	for i := 0; i < b.N; i++ {
		vo := sim.RunAll(verified, verCases)
		po := sim.RunAll(paper, papCases)
		verOpt, papOpt = optimalRate(vo), optimalRate(po)
	}
	b.ReportMetric(verOpt, "verified-optimal-%")
	b.ReportMetric(papOpt, "paper-rule-optimal-%")
}

func optimalRate(outs []sim.Outcome) float64 {
	n, opt := 0, 0
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		n++
		if o.RTR.Optimal {
			opt++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * float64(opt) / float64(n)
}

// --- Substrate micro-benchmarks -------------------------------------

// BenchmarkDijkstra measures a full shortest-path-tree computation on
// the largest Table II topology.
func BenchmarkDijkstra(b *testing.B) {
	topo := topology.GenerateAS("AS7018", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spt.Compute(topo.G, graph.NodeID(i%topo.G.NumNodes()), graph.Nothing)
	}
}

// BenchmarkSPTCompute measures one full shortest-path-tree computation
// through the package-level entry point (owned result tree, pooled
// internal scratch), reporting allocations.
func BenchmarkSPTCompute(b *testing.B) {
	topo := topology.GenerateAS("AS7018", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spt.Compute(topo.G, graph.NodeID(i%topo.G.NumNodes()), graph.Nothing)
	}
}

// BenchmarkSPTComputeWorkspace measures the same computation through a
// reused Workspace (scratch result tree): the allocation-free hot path.
func BenchmarkSPTComputeWorkspace(b *testing.B) {
	topo := topology.GenerateAS("AS7018", 1)
	ws := spt.GetWorkspace()
	defer ws.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Compute(topo.G, graph.NodeID(i%topo.G.NumNodes()), graph.Nothing)
	}
}

// BenchmarkSPTRecompute measures the incremental SPT update through
// the package-level entry point, reporting allocations.
func BenchmarkSPTRecompute(b *testing.B) {
	topo := topology.GenerateAS("AS3561", 1)
	base := spt.Compute(topo.G, 0, graph.Nothing)
	extra := graph.NewMask(topo.G)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		extra.FailLink(graph.LinkID(rng.Intn(topo.G.NumLinks())))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spt.Recompute(topo.G, base, graph.Nothing, extra)
	}
}

// BenchmarkSPTRecomputeWorkspace measures the incremental update into
// workspace scratch, the allocation-free variant RTR's phase 2 mirrors.
func BenchmarkSPTRecomputeWorkspace(b *testing.B) {
	topo := topology.GenerateAS("AS3561", 1)
	base := spt.Compute(topo.G, 0, graph.Nothing)
	extra := graph.NewMask(topo.G)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		extra.FailLink(graph.LinkID(rng.Intn(topo.G.NumLinks())))
	}
	ws := spt.GetWorkspace()
	defer ws.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Recompute(topo.G, base, graph.Nothing, extra)
	}
}

// BenchmarkRunAllParallelScaling measures the case runner at 1, 2, and
// GOMAXPROCS workers on the shared dataset's workload — the scaling
// that the truth-tree cache and the per-node clean-tree warm-up
// unlock (both used to serialize or duplicate Dijkstra work).
func BenchmarkRunAllParallelScaling(b *testing.B) {
	w, cases := sharedCases(b)
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, n := range workers {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.RunAllN(w, cases, n)
			}
			b.ReportMetric(float64(len(cases))*float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
		})
	}
}

// BenchmarkRunAllBatched measures batched execution on full-scenario
// case batches from the two largest Table II topologies (AS7018 by
// nodes, AS3549 by density). A full scenario maximizes destination
// fan-out per (initiator, trigger) group, which is exactly the sharing
// the batched runner exploits: one collection walk and one pruned-view
// SPT per group instead of one per destination. (The per-case oracle
// it is proven against lives in internal/sim's tests.)
func BenchmarkRunAllBatched(b *testing.B) {
	for _, as := range []string{"AS7018", "AS3549"} {
		w, err := sim.NewWorld(as, 1)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		var cases []*sim.Case
		for len(cases) == 0 {
			sc := failure.RandomScenario(w.Topo, rng)
			rec, irr := sim.CasesFromScenario(w, sc)
			cases = append(append(cases, rec...), irr...)
		}
		b.Run(as+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.RunAllN(w, cases, 0)
			}
			b.ReportMetric(float64(len(cases))*float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
		})
	}
}

// BenchmarkSinglePairRecovery measures one full single-pair recovery
// per op — fresh session, collection, phase-2 route, forwarding,
// grading — for each protocol on the two largest Table II topologies.
func BenchmarkSinglePairRecovery(b *testing.B) {
	for _, as := range []string{"AS7018", "AS3549"} {
		w, err := sim.NewWorld(as, 1)
		if err != nil {
			b.Fatal(err)
		}
		p, err := sim.NewSinglePair(w, 13)
		if err != nil {
			b.Fatal(err)
		}
		for _, proto := range []struct {
			name string
			run  func() error
		}{
			{"rtr", func() error { _, err := p.RTR(); return err }},
			{"fcp", func() error { _, err := p.FCP(); return err }},
			{"mrc", func() error { _, err := p.MRC(); return err }},
		} {
			b.Run(as+"/"+proto.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := proto.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIncrementalRecompute measures the Narvaez-style incremental
// SPT update RTR's phase 2 uses, against a batch of removed links.
func BenchmarkIncrementalRecompute(b *testing.B) {
	topo := topology.GenerateAS("AS3561", 1)
	base := spt.Compute(topo.G, 0, graph.Nothing)
	extra := graph.NewMask(topo.G)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		extra.FailLink(graph.LinkID(rng.Intn(topo.G.NumLinks())))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spt.Recompute(topo.G, base, graph.Nothing, extra)
	}
}

// BenchmarkPostFailureTables measures the per-scenario converged-table
// build — cold (one reverse Dijkstra per destination) versus
// incremental (delete-only recompute seeded from the pre-failure
// tables) — on the largest Table II topology by nodes (AS7018) and the
// densest one (AS3549). netsim, the loss experiment, and the Fig. 11
// truth trees all pay this cost once per failure scenario, and the two
// variants produce bit-identical tables.
func BenchmarkPostFailureTables(b *testing.B) {
	for _, as := range []string{"AS7018", "AS3549"} {
		topo := topology.GenerateAS(as, 1)
		pre := routing.ComputeTables(topo)
		rng := rand.New(rand.NewSource(7))
		var scs []*failure.Scenario
		for len(scs) < 16 {
			if sc := failure.RandomScenario(topo, rng); sc.HasFailures() {
				scs = append(scs, sc)
			}
		}
		// Tables build a destination on first use; the full table is
		// what is priced here, so ask for every destination.
		all := func(t *routing.Tables) {
			for dst := 0; dst < topo.G.NumNodes(); dst++ {
				t.DestTree(graph.NodeID(dst))
			}
		}
		all(pre)
		b.Run(as+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				all(routing.ComputeTablesLazy(topo, scs[i%len(scs)]))
			}
		})
		b.Run(as+"/incremental", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				all(routing.RecomputeTablesUnder(topo, pre, scs[i%len(scs)]))
			}
		})
	}
}

// BenchmarkMRCBuildTrees measures MRC's k*n configuration tree matrix
// — the precomputation cost Enhanced-MRC identifies as MRC's scaling
// burden — cold versus warm-started from the clean routing tables.
func BenchmarkMRCBuildTrees(b *testing.B) {
	topo := topology.GenerateAS("AS7018", 1)
	tables := routing.ComputeTables(topo)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mrc.New(topo, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mrc.NewWarm(topo, 0, tables); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCrossIndexBuild measures the per-topology cross-link
// precomputation on the three Table II maps with the most long links
// (the densest, AS3549, among them) and on the 16,384-node tiered
// world the scale workload serves, whose links are short.
func BenchmarkCrossIndexBuild(b *testing.B) {
	topos := []*topology.Topology{
		topology.GenerateAS("AS3320", 1),
		topology.GenerateAS("AS3549", 1),
		topology.GenerateAS("AS3561", 1),
		tiered16k(b),
	}
	for _, topo := range topos {
		b.Run(topo.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topology.BuildCrossIndex(topo)
			}
		})
	}
}

// tiered16k synthesises the 16,384-node tiered world of the scale_serve
// workload (same generator parameters, seed 1).
func tiered16k(b *testing.B) *topology.Topology {
	b.Helper()
	topo, err := topology.Generate(topology.GenParams{Name: "tiered16k", Nodes: 1 << 14, Links: 3 << 14, Tiers: true},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// BenchmarkHeaderCodec measures the packet-header wire codec round
// trip at a typical phase-1 header size.
func BenchmarkHeaderCodec(b *testing.B) {
	h := routing.Header{
		Mode:        routing.ModeCollect,
		RecInit:     42,
		FailedLinks: []graph.LinkID{3, 9, 17, 21, 80},
		CrossLinks:  []graph.LinkID{5, 44},
	}
	buf := make([]byte, 0, h.EncodedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = h.AppendBinary(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := routing.DecodeHeader(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase1Walk measures one constrained collection walk on a
// realistic random failure: on the AS1239 analogue, and on a
// 16,384-node tiered world (the scale_serve generator parameters, one
// recoverable case of a radius-50 disk), where Constraints 1-2 are
// asked against a cross_link field of hundreds of entries.
func BenchmarkPhase1Walk(b *testing.B) {
	b.Run("AS1239", func(b *testing.B) {
		w, cases := sharedCases(b)
		for _, c := range cases {
			if c.Recoverable {
				benchWalk(b, w, c)
				return
			}
		}
		b.Fatal("no usable case")
	})
	b.Run("tiered16k", func(b *testing.B) {
		topo := tiered16k(b)
		w, err := sim.NewWorldFrom(topo)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for try := 0; try < 50; try++ {
			sc := failure.NewScenario(topo, failure.RandomArea(rng, 50, 50))
			if rec, _ := sim.ScaleCasesFromScenario(w, sc, rng, 32); len(rec) > 0 {
				benchWalk(b, w, rec[0])
				return
			}
		}
		b.Fatal("no usable case")
	})
}

func benchWalk(b *testing.B, w *sim.World, c *sim.Case) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := w.RTR.NewSession(c.LV, c.Initiator)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Collect(c.Trigger); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimRun measures the discrete-event packet simulator on
// the worked example: one flow, one second of traffic, full recovery
// timeline.
func BenchmarkNetsimRun(b *testing.B) {
	topo := topology.PaperExample()
	r := core.New(topo, nil)
	tables := routing.ComputeTables(topo)
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	cfg := netsim.Config{
		Flows:   []netsim.Flow{{Src: topology.PaperNode(7), Dst: topology.PaperNode(17), Interval: 5 * time.Millisecond}},
		Horizon: time.Second,
		Timers:  igp.TunedTimers(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := netsim.New(converged.New(topo, tables, r, sc), cfg).Run()
		if res.Delivered() == 0 {
			b.Fatal("nothing delivered")
		}
	}
}
