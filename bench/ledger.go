package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/mrc"
	"repro/internal/routing"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Ledger input sizes: source constants, like the plans.
const (
	ledgerFailuresPerTopo = 4
	ledgerCasesPerFailure = 8
	ledgerScaleFailures   = 2
	ledgerHeavyRepeats    = 5 // units of 100 ms and more
)

// ledger measures one row per public entry point of each layer on
// reference inputs drawn from -seed: the eight Table II worlds and the
// scale world. Every row is a floor over at least tracePasses repeats
// (ledgerHeavyRepeats for the three units of 100 ms and more), and every
// call is a span in the trace.
type ledger struct {
	tr    *tracer
	set   func(name string, v float64)
	seed  int64
	names []string
	topos []*topology.Topology
	world []*sim.World
	fails []ledgerFailure // Table II failures, topology-major
	cases []ledgerCase    // flattened, failure-major
}

type ledgerFailure struct {
	t     int // topology index
	sc    *failure.Scenario
	lv    *routing.LocalView
	cases []*sim.Case
}

type ledgerCase struct {
	f int // failure index
	c *sim.Case
}

// probe times fn(i) for every item, `repeats` times over, and returns
// each item's floor. prep(i), when given, runs before the clock starts.
func (lg *ledger) probe(name string, items, repeats int, prep, fn func(i int)) []int64 {
	g := lg.tr.begin(name, -1, -1)
	fl := newSteps(items)
	for r := 0; r < repeats; r++ {
		for i := 0; i < items; i++ {
			if prep != nil {
				prep(i)
			}
			id := lg.tr.begin(name, g, i)
			t0 := now()
			fn(i)
			keepMin(&fl[i], since(t0))
			lg.tr.end(id)
		}
	}
	lg.tr.end(g)
	return fl
}

func sumNs(fl []int64) float64 {
	var s int64
	for _, v := range fl {
		s += v
	}
	return float64(s)
}

func meanNs(fl []int64) float64 { return sumNs(fl) / float64(len(fl)) }

const (
	perMs = 1e6
	perUs = 1e3
)

func runLedger(cfg runConfig, tr *tracer, set func(string, float64)) error {
	lg := &ledger{tr: tr, set: set, seed: cfg.seed, names: topology.ASNames()}
	if err := lg.inputs(); err != nil {
		return err
	}
	lg.topologyRows()
	lg.routingRows()
	lg.protocolRows()
	lg.sptRows()
	lg.failureRows()
	lg.simRows()
	if err := lg.sweepRows(filepath.Join(cfg.workdir, fmt.Sprintf("ledger-%d", cfg.seed))); err != nil {
		return err
	}
	if err := lg.serveRows(); err != nil {
		return err
	}
	lg.invariantRows()
	return lg.scaleRows()
}

// inputs builds the Table II worlds and draws the reference failures and
// cases from -seed.
func (lg *ledger) inputs() error {
	rng := rand.New(rand.NewSource(seed.Derive(lg.seed, "ledger")))
	for t, as := range lg.names {
		w, err := sim.NewWorldPhase2(as, topoSeed, spt.EngineDijkstra)
		if err != nil {
			return err
		}
		lg.world = append(lg.world, w)
		lg.topos = append(lg.topos, w.Topo)
		for _, sf := range drawFailures(as, w, rng, ledgerFailuresPerTopo, ledgerCasesPerFailure) {
			lf := ledgerFailure{t: t, sc: sf.sc, lv: sf.cases[0].LV, cases: sf.cases}
			for _, c := range sf.cases {
				lg.cases = append(lg.cases, ledgerCase{f: len(lg.fails), c: c})
			}
			lg.fails = append(lg.fails, lf)
		}
	}
	return nil
}

func (lg *ledger) topologyRows() {
	gen := lg.probe("topology.generate", len(lg.names), tracePasses, nil, func(i int) {
		p, _ := topology.ParamsFor(lg.names[i])
		if _, err := topology.Generate(p, rand.New(rand.NewSource(topoSeed))); err != nil {
			panic(err)
		}
	})
	lg.set("topology.generate_ms", sumNs(gen)/perMs)
	ci := lg.probe("topology.cross_index", len(lg.topos), tracePasses, nil, func(i int) {
		topology.BuildCrossIndex(lg.topos[i])
	})
	lg.set("topology.cross_index_ms", sumNs(ci)/perMs)
}

func (lg *ledger) routingRows() {
	cold := lg.probe("routing.tables_cold", len(lg.topos), tracePasses, nil, func(i int) {
		routing.ComputeTables(lg.topos[i])
	})
	lg.set("routing.tables_cold_ms", sumNs(cold)/perMs)
	rec := lg.probe("routing.recompute", len(lg.fails), tracePasses, nil, func(i int) {
		f := lg.fails[i]
		routing.RecomputeTablesUnder(lg.topos[f.t], lg.world[f.t].Tables, f.sc)
	})
	lg.set("routing.recompute_ms", meanNs(rec)/perMs)
	lv := lg.probe("routing.localview", len(lg.fails), tracePasses, nil, func(i int) {
		f := lg.fails[i]
		routing.NewLocalView(lg.topos[f.t], f.sc)
	})
	lg.set("routing.localview_us", meanNs(lv)/perUs)
	td := lg.probe("routing.trace_default", len(lg.cases), tracePasses, nil, func(i int) {
		lc := lg.cases[i]
		f := lg.fails[lc.f]
		routing.TraceDefault(lg.world[f.t].Tables, f.lv, lc.c.Initiator, lc.c.Dst)
	})
	lg.set("routing.trace_default_us", meanNs(td)/perUs)
}

// protocolRows covers core (RTR), fcp and mrc on the reference cases.
func (lg *ledger) protocolRows() {
	build := lg.probe("mrc.build", len(lg.topos), tracePasses, nil, func(i int) {
		w := lg.world[i]
		if _, err := mrc.NewWarmPhase2(w.Topo, 0, w.Tables, spt.EngineDijkstra, w.RTR.Heuristic()); err != nil {
			panic(err)
		}
	})
	lg.set("mrc.build_ms", sumNs(build)/perMs)
	mr := lg.probe("mrc.recover", len(lg.cases), tracePasses, nil, func(i int) {
		c := lg.cases[i].c
		lg.world[lg.fails[lg.cases[i].f].t].MRC.Recover(c.LV, c.Initiator, c.Dst, c.NextHop, c.Trigger)
	})
	lg.set("mrc.recover_us_per_case", meanNs(mr)/perUs)
	fr := lg.probe("fcp.recover", len(lg.cases), tracePasses, nil, func(i int) {
		c := lg.cases[i].c
		lg.world[lg.fails[lg.cases[i].f].t].FCP.Recover(c.LV, c.Initiator, c.Dst)
	})
	lg.set("fcp.recover_us_per_case", meanNs(fr)/perUs)

	// Phase 1 per case on a fresh session; phase 2 and forwarding on the
	// session that walk leaves behind.
	n := len(lg.cases)
	sess := make([]*core.Session, n)
	routes := make([]core.Route, n)
	hops := 0
	rtr := func(i int) *core.RTR { return lg.world[lg.fails[lg.cases[i].f].t].RTR }
	open := func(i int) {
		c := lg.cases[i].c
		s, err := rtr(i).NewSession(c.LV, c.Initiator)
		if err != nil {
			panic(err)
		}
		sess[i] = s
	}
	col := lg.probe("core.collect", n, tracePasses, open, func(i int) {
		sess[i].Collect(lg.cases[i].c.Trigger)
	})
	for i := range sess {
		if c := sess[i].Collected(); c != nil {
			hops += c.Walk.Hops()
		}
	}
	lg.set("core.collect_us", meanNs(col)/perUs)
	lg.set("core.collect_hops", float64(hops)/float64(n))
	collect := func(i int) {
		open(i)
		sess[i].Collect(lg.cases[i].c.Trigger)
	}
	p2 := lg.probe("core.phase2", n, tracePasses, collect, func(i int) {
		if sess[i].Collected() != nil {
			sess[i].RecoveryPathInto(&routes[i], lg.cases[i].c.Dst)
		}
	})
	lg.set("core.phase2_us", meanNs(p2)/perUs)
	fw := lg.probe("core.forward", n, tracePasses, nil, func(i int) {
		if len(routes[i].Nodes) > 0 {
			sess[i].ForwardSourceRouted(routes[i])
		}
	})
	lg.set("core.forward_us", meanNs(fw)/perUs)

	// Clean trees are memoised per engine, so each repeat asks a fresh one.
	fresh := make([]*core.RTR, len(lg.world))
	nodes := 0
	for _, w := range lg.world {
		nodes += w.Topo.G.NumNodes()
	}
	ct := lg.probe("core.clean_tree", len(lg.world), tracePasses, func(i int) {
		fresh[i] = core.New(lg.topos[i], lg.world[i].CI)
	}, func(i int) {
		for v := 0; v < lg.topos[i].G.NumNodes(); v++ {
			fresh[i].CleanTree(graph.NodeID(v))
		}
	})
	lg.set("core.clean_tree_us", sumNs(ct)/float64(nodes)/perUs)
}

func (lg *ledger) sptRows() {
	ws := spt.GetWorkspace()
	defer ws.Release()
	g := func(i int) *graph.Graph { return lg.topos[lg.fails[lg.cases[i].f].t].G }
	comp := lg.probe("spt.compute", len(lg.cases), tracePasses, nil, func(i int) {
		ws.Compute(g(i), lg.cases[i].c.Initiator, lg.cases[i].c.Scenario)
	})
	lg.set("spt.compute_us", meanNs(comp)/perUs)
	rec := lg.probe("spt.recompute", len(lg.cases), tracePasses, nil, func(i int) {
		c := lg.cases[i].c
		clean := lg.world[lg.fails[lg.cases[i].f].t].RTR.CleanTree(c.Initiator)
		ws.Recompute(g(i), clean, graph.Nothing, c.Scenario)
	})
	lg.set("spt.recompute_us", meanNs(rec)/perUs)
	var res spt.GoalResult
	goal := lg.probe("spt.goal", len(lg.cases), tracePasses, nil, func(i int) {
		c := lg.cases[i].c
		res.Nodes, res.Links = res.Nodes[:0], res.Links[:0]
		ws.ComputeGoal(&res, g(i), c.Initiator, c.Dst, c.Scenario, nil)
	})
	lg.set("spt.goal_us", meanNs(goal)/perUs)
}

func (lg *ledger) failureRows() {
	const draws = 16
	gen := lg.probe("failure.generate", len(lg.topos), tracePasses, nil, func(i int) {
		rng := rand.New(rand.NewSource(lg.seed))
		for d := 0; d < draws; d++ {
			failure.Default().Generate(lg.topos[i], rng)
		}
	})
	lg.set("failure.generate_us", meanNs(gen)/draws/perUs)
	spell := make([]string, len(lg.fails))
	for i, f := range lg.fails {
		spell[i] = clientSpelling(f.sc.Areas()[0])
	}
	parse := lg.probe("failure.parse", len(lg.fails), tracePasses, nil, func(i int) {
		sc, err := failure.ParseInstance(lg.topos[lg.fails[i].t], spell[i])
		if err != nil {
			panic(err)
		}
		_ = sc.Desc()
	})
	lg.set("failure.parse_us", meanNs(parse)/perUs)
}

func (lg *ledger) simRows() {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	build := lg.probe("sim.world_build", len(lg.names), tracePasses, nil, func(i int) {
		if _, err := sim.NewWorldPhase2(lg.names[i], topoSeed, spt.EngineDijkstra); err != nil {
			panic(err)
		}
	})
	runtime.ReadMemStats(&ms1)
	lg.set("sim.world_build_ms", sumNs(build)/perMs)
	lg.set("sim.world_build_allocs", float64(ms1.Mallocs-ms0.Mallocs)/tracePasses)

	// The sweep shard's three stages on the same draws a shard makes.
	sets := make([][]*sim.Case, len(lg.world))
	outs := make([][]sim.Outcome, len(lg.world))
	total := 0
	col := lg.probe("sim.collect", len(lg.world), tracePasses, nil, func(i int) {
		rng := rand.New(rand.NewSource(seed.Derive(lg.seed, "ledger", lg.names[i])))
		rec, irr := sim.CollectBothG(lg.world[i], failure.Default(), rng, sweepCasesPerKind, sweepCasesPerKind)
		sets[i] = append(rec, irr...)
	})
	for _, s := range sets {
		total += len(s)
	}
	lg.set("sim.collect_us_per_case", sumNs(col)/float64(total)/perUs)
	run1 := lg.probe("sim.runall", len(lg.world), tracePasses, nil, func(i int) {
		outs[i] = sim.RunAllN(lg.world[i], sets[i], 1)
	})
	lg.set("sim.runall_us_per_case", sumNs(run1)/float64(total)/perUs)
	recs := lg.probe("sim.records", len(lg.world), tracePasses, nil, func(i int) {
		sim.Records(outs[i])
	})
	lg.set("sim.records_us_per_case", sumNs(recs)/float64(total)/perUs)
	runN := lg.probe("sim.runall_nproc", len(lg.world), tracePasses, nil, func(i int) {
		sim.RunAllN(lg.world[i], sets[i], runtime.NumCPU())
	})
	lg.set("sim.runall_scaling_x", sumNs(run1)/sumNs(runN))
}

func (lg *ledger) sweepRows(dir string) error {
	worlds := map[string]*sim.World{}
	for i, as := range lg.names {
		worlds[as] = lg.world[i]
	}
	spec := func(topos ...string) sweep.Spec {
		return sweep.Spec{
			BaseSeed: seed.Derive(lg.seed, "ledger", "sweep"), Topologies: topos,
			Recoverable: sweepCasesPerKind, Irrecoverable: sweepCasesPerKind, BlockCases: sweepCasesPerKind,
		}
	}
	var err error
	results := make([]*sweep.RunResult, len(lg.names))
	run := func(name string, e func(i int) *sweep.Engine, items int) []int64 {
		return lg.probe(name, items, tracePasses, nil, func(i int) {
			r, rerr := e(i).Run(context.Background())
			if rerr != nil {
				err = rerr
				return
			}
			if items == len(results) {
				results[i] = r
			}
		})
	}
	disk := run("sweep.run", func(i int) *sweep.Engine {
		return &sweep.Engine{Spec: spec(lg.names[i]), Worlds: worlds, Workers: 1, Dir: filepath.Join(dir, lg.names[i])}
	}, len(lg.names))
	mem := run("sweep.run_nodir", func(i int) *sweep.Engine {
		return &sweep.Engine{Spec: spec(lg.names[i]), Worlds: worlds, Workers: 1}
	}, len(lg.names))
	os.RemoveAll(dir)
	if err != nil {
		return err
	}
	lg.set("sweep.run_ms_per_shard", meanNs(disk)/perMs)
	lg.set("sweep.checkpoint_ms_per_shard", (meanNs(disk)-meanNs(mem))/perMs)
	merge := lg.probe("sweep.merge", len(results), tracePasses, nil, func(i int) {
		ds, derr := results[i].Datasets(worlds)
		if derr != nil {
			err = derr
			return
		}
		d := ds[lg.names[i]]
		d.Table3()
		d.Table4()
	})
	lg.set("sweep.merge_ms", meanNs(merge)/perMs)
	one := run("sweep.workers_1", func(int) *sweep.Engine {
		return &sweep.Engine{Spec: spec(lg.names...), Worlds: worlds, Workers: 1}
	}, 1)
	many := run("sweep.workers_nproc", func(int) *sweep.Engine {
		return &sweep.Engine{Spec: spec(lg.names...), Worlds: worlds, Workers: runtime.NumCPU()}
	}, 1)
	lg.set("sweep.scaling_x", sumNs(one)/sumNs(many))
	return err
}

// serveRows drives a Table II engine with a hot plan (every failure
// cached) and a second engine whose one-entry cache makes every visit a
// miss, and replays a hot query's stages from the outside.
func (lg *ledger) serveRows() error {
	worlds := map[string]*sim.World{}
	for i, as := range lg.names {
		worlds[as] = lg.world[i]
	}
	var err error
	nw := lg.probe("serve.new", 1, ledgerHeavyRepeats, nil, func(int) {
		if _, nerr := serve.New(serve.Config{Seed: topoSeed, CacheEntries: missCacheEntries}); nerr != nil {
			err = nerr
		}
	})
	if err != nil {
		return err
	}
	lg.set("serve.new_ms", sumNs(nw)/perMs)

	hot, err := serve.New(serve.Config{Worlds: worlds, CacheEntries: missCacheEntries})
	if err != nil {
		return err
	}
	h := hot.Handler()
	n := len(lg.cases)
	reqs := make([]*http.Request, n)
	queries := make([]serve.Query, n)
	for i, lc := range lg.cases {
		f := lg.fails[lc.f]
		q := serve.Query{
			Topo: lg.names[f.t], Failure: clientSpelling(f.sc.Areas()[0]),
			Src: int(lc.c.Initiator), Dst: int(lc.c.Dst), Scheme: serve.SchemeAll,
		}
		queries[i] = q
		u := fmt.Sprintf("http://bench/recover?topo=%s&failure=%s&src=%d&dst=%d&scheme=all",
			q.Topo, url.QueryEscape(q.Failure), q.Src, q.Dst)
		if reqs[i], err = http.NewRequest(http.MethodGet, u, nil); err != nil {
			return err
		}
	}
	rw := respWriter{h: make(http.Header), body: make([]byte, 0, 1<<16)}
	serveOp := func(i int) {
		rw.reset()
		h.ServeHTTP(&rw, reqs[i])
		if rw.code != http.StatusOK {
			err = fmt.Errorf("ledger query %d: status %d: %s", i, rw.code, rw.body)
		}
	}
	for i := range reqs { // warm every entry, session and truth tree
		serveOp(i)
	}
	if err != nil {
		return err
	}
	handler := lg.probe("serve.handler", n, tracePasses, nil, serveOp)
	query := lg.probe("serve.query", n, tracePasses, nil, func(i int) {
		if _, qerr := hot.Query(queries[i]); qerr != nil {
			err = qerr
		}
	})
	lg.set("serve.handler_us", meanNs(handler)/perUs)
	lg.set("serve.query_us", meanNs(query)/perUs)
	lg.set("serve.codec_us", (meanNs(handler)-meanNs(query))/perUs)

	batches := make([]serve.Batch, len(lg.fails))
	for i, f := range lg.fails {
		b := serve.Batch{Topo: lg.names[f.t], Failure: clientSpelling(f.sc.Areas()[0]), Scheme: serve.SchemeAll}
		for _, c := range f.cases {
			b.Pairs = append(b.Pairs, serve.Pair{Src: int(c.Initiator), Dst: int(c.Dst)})
		}
		batches[i] = b
	}
	batch := lg.probe("serve.batch", len(batches), tracePasses, nil, func(i int) {
		if _, berr := hot.QueryBatch(batches[i]); berr != nil {
			err = berr
		}
	})
	lg.set("serve.batch_us_per_pair", sumNs(batch)/float64(n)/perUs)

	lg.set("serve.stage_sum_share", lg.replayStages(handler)/sumNs(handler))

	// Two clients on the hot plan against one: wall time of all ops.
	one := lg.probe("serve.clients_1", 1, tracePasses, nil, func(int) {
		for i := range reqs {
			serveOp(i)
		}
	})
	two := lg.probe("serve.clients_2", 1, tracePasses, nil, func(int) {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				w2 := respWriter{h: make(http.Header), body: make([]byte, 0, 1<<12)}
				for i := c; i < len(reqs); i += 2 {
					w2.reset()
					h.ServeHTTP(&w2, reqs[i])
				}
			}(c)
		}
		wg.Wait()
	})
	lg.set("serve.scaling_x", sumNs(one)/sumNs(two))

	loop, lerr := lg.loopback(h, reqs)
	if lerr != nil {
		return lerr
	}
	lg.set("serve.loopback_us", (loop-meanNs(handler))/perUs)

	// One-entry cache, failures visited in turn: the first query of a
	// visit misses (insert, evict, warm), the second rides the fresh entry.
	cold, err := serve.New(serve.Config{Worlds: worlds, CacheEntries: 1})
	if err != nil {
		return err
	}
	hc := cold.Handler()
	first := make([]*http.Request, len(lg.fails))
	second := make([]*http.Request, len(lg.fails))
	at := 0
	for i, f := range lg.fails {
		first[i], second[i] = reqs[at], reqs[at+1]
		at += len(f.cases)
	}
	before := cold.Stats()
	miss := lg.probe("serve.miss", len(first), tracePasses, nil, func(i int) {
		rw.reset()
		hc.ServeHTTP(&rw, first[i])
	})
	after := cold.Stats()
	lg.set("serve.miss_ms", meanNs(miss)/perMs)
	lg.set("serve.evictions_per_kop", 1000*float64(after.Evictions-before.Evictions)/float64(after.Queries-before.Queries))
	freshE := lg.probe("serve.fresh_entry", len(first), tracePasses, func(i int) {
		rw.reset()
		hc.ServeHTTP(&rw, first[i])
	}, func(i int) {
		rw.reset()
		hc.ServeHTTP(&rw, second[i])
	})
	end := cold.Stats()
	lg.set("serve.fresh_entry_us", meanNs(freshE)/perUs)
	lg.set("serve.hit_rate", serve.HitRate(after, end))
	return err
}

// replayStages calls, for every hot reference query, the public functions
// of the layers a served hit goes through, one stage at a time, and
// returns the sum of the stage floors: the part of a query the outside-in
// ledger accounts for.
func (lg *ledger) replayStages(handler []int64) float64 {
	n := len(lg.cases)
	world := func(i int) *sim.World { return lg.world[lg.fails[lg.cases[i].f].t] }
	raw := make([]string, n)
	sess := make([]*core.Session, n)
	cols := make([]*core.CollectResult, n)
	truth := make([]*spt.Tree, n)
	outs := make([]sim.Outcome, n)
	resps := make([]serve.Response, n)
	for i, lc := range lg.cases {
		f := lg.fails[lc.f]
		raw[i] = fmt.Sprintf("topo=%s&failure=%s&src=%d&dst=%d&scheme=all", lg.names[f.t],
			url.QueryEscape(clientSpelling(f.sc.Areas()[0])), lc.c.Initiator, lc.c.Dst)
		w := world(i)
		truth[i] = spt.Recompute(w.Topo.G, w.RTR.CleanTree(lc.c.Initiator), graph.Nothing, lc.c.Scenario)
		if s, err := w.RTR.NewSession(lc.c.LV, lc.c.Initiator); err == nil {
			if col, err := s.Collect(lc.c.Trigger); err == nil {
				s.Prepare()
				sess[i], cols[i] = s, col
			}
		}
		outs[i] = sim.Outcome{Case: lc.c, Truth: truth[i]}
	}
	total := 0.0
	stage := func(name string, fn func(i int)) {
		total += sumNs(lg.probe("replay."+name, n, tracePasses, nil, fn))
	}
	stage("decode", func(i int) { url.ParseQuery(raw[i]) })
	stage("parse_fingerprint", func(i int) {
		f := lg.fails[lg.cases[i].f]
		if sc, err := failure.ParseInstance(lg.topos[f.t], clientSpelling(f.sc.Areas()[0])); err == nil {
			_ = sc.Desc()
		}
	})
	stage("next_hop", func(i int) {
		c := lg.cases[i].c
		if _, link, ok := world(i).Tables.NextHop(c.Initiator, c.Dst); ok {
			c.LV.NeighborUnreachable(c.Initiator, link)
		}
	})
	stage("rtr_phase2_grade", func(i int) {
		if sess[i] != nil {
			var rt core.Route
			outs[i].RTR = sim.RunRTRSession(world(i), lg.cases[i].c, sess[i], cols[i], &rt, truth[i])
		}
	})
	stage("fcp", func(i int) { outs[i].FCP, _ = sim.RunFCP(world(i), lg.cases[i].c, truth[i]) })
	stage("mrc", func(i int) { outs[i].MRC, _ = sim.RunMRC(world(i), lg.cases[i].c, truth[i]) })
	stage("record", func(i int) {
		c := lg.cases[i].c
		rec := outs[i].Record()
		resps[i] = serve.Response{
			Topo: lg.names[lg.fails[lg.cases[i].f].t], Failure: c.Scenario.Desc(),
			Src: int(c.Initiator), Dst: int(c.Dst), Scheme: serve.SchemeAll,
			Disposition: serve.DispRecovery, Recoverable: c.Recoverable, CacheHit: true, Case: &rec,
		}
	})
	var buf bytes.Buffer
	stage("encode", func(i int) {
		buf.Reset()
		json.NewEncoder(&buf).Encode(&resps[i])
	})
	return total
}

// loopback serves the hot plan over a real 127.0.0.1 socket and returns
// the mean floor of a round trip. It is the transport row; no end-to-end
// number includes it.
func (lg *ledger) loopback(h http.Handler, reqs []*http.Request) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	urls := make([]string, len(reqs))
	for i, r := range reqs {
		urls[i] = "http://" + ln.Addr().String() + r.URL.RequestURI()
	}
	buf := make([]byte, 1<<16)
	fl := lg.probe("serve.loopback", len(urls), tracePasses, nil, func(i int) {
		resp, gerr := client.Get(urls[i])
		if gerr != nil {
			err = gerr
			return
		}
		for {
			if _, rerr := resp.Body.Read(buf); rerr != nil {
				break
			}
		}
		resp.Body.Close()
	})
	return meanNs(fl), err
}

func (lg *ledger) invariantRows() {
	checkers := make([]*invariant.Checker, len(lg.world))
	for i, w := range lg.world {
		checkers[i] = invariant.New(w)
	}
	chk := lg.probe("invariant.check", len(lg.cases), tracePasses, nil, func(i int) {
		checkers[lg.fails[lg.cases[i].f].t].CheckCase(lg.cases[i].c)
	})
	lg.set("invariant.check_us_per_case", meanNs(chk)/perUs)
}

// scaleRows covers what only the scale world exercises: the snapshot
// codec, lazy tables, per-destination tree materialisation, the sampled
// case enumerator and a served first touch.
func (lg *ledger) scaleRows() error {
	topo, err := topology.Generate(scaleParams(), rand.New(rand.NewSource(topoSeed)))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	wr := lg.probe("topology.snapshot_write", 1, tracePasses, nil, func(int) {
		buf.Reset()
		if werr := topology.WriteBinary(&buf, topo, nil); werr != nil {
			err = werr
		}
	})
	rd := lg.probe("topology.snapshot_read", 1, tracePasses, nil, func(int) {
		if _, rerr := topology.ReadBinary(bytes.NewReader(buf.Bytes()), nil); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	lg.set("topology.snapshot_write_ms", sumNs(wr)/perMs)
	lg.set("topology.snapshot_read_ms", sumNs(rd)/perMs)
	lazy := lg.probe("routing.tables_lazy", 1, tracePasses, nil, func(int) {
		routing.ComputeTablesLazy(topo, graph.Nothing)
	})
	lg.set("routing.tables_lazy_ms", sumNs(lazy)/perMs)

	var w *sim.World
	wb := lg.probe("sim.scale_world_build", 1, ledgerHeavyRepeats, func(int) {
		w = nil
		runtime.GC()
	}, func(int) {
		if w, err = sim.NewWorldFromConfig(topo, sim.WorldConfig{}); err != nil {
			panic(err)
		}
	})
	lg.set("sim.scale_world_build_ms", sumNs(wb)/perMs)

	// Reference scale failures and their queries, drawn like the workload's.
	rng := rand.New(rand.NewSource(seed.Derive(lg.seed, "ledger", "scale")))
	fails := drawScaleFailures(w, rng, seed.Derive(lg.seed, "ledger", "destinations"), ledgerScaleFailures, scalePairsPerFailure)
	sc := lg.probe("sim.scale_collect", 1, ledgerHeavyRepeats, nil, func(int) {
		r := rand.New(rand.NewSource(lg.seed))
		sim.ScaleCasesFromScenario(w, fails[0].sc, r, scaleDstSample)
	})
	lg.set("sim.scale_collect_ms", sumNs(sc)/perMs)

	// Per-destination trees of a fresh post-failure lazy table.
	type want struct {
		f   int
		dst graph.NodeID
	}
	var wants []want
	for f, sf := range fails {
		for _, c := range sf.cases {
			wants = append(wants, want{f, c.Dst})
		}
	}
	post := make([]*routing.Tables, len(fails))
	dt := lg.probe("routing.dest_tree", len(wants), tracePasses, func(i int) {
		if i == 0 || wants[i].f != wants[i-1].f {
			post[wants[i].f] = routing.RecomputeTablesUnder(w.Topo, w.Tables, fails[wants[i].f].sc)
		}
	}, func(i int) {
		post[wants[i].f].DestTree(wants[i].dst)
	})
	lg.set("routing.dest_tree_ms", meanNs(dt)/perMs)

	// Served first touch: one-entry cache, two failures in turn, so every
	// query of a visit lands on a fresh entry or a new destination.
	eng, err := serve.New(serve.Config{Worlds: map[string]*sim.World{scaleTopoName: w}, CacheEntries: 1})
	if err != nil {
		return err
	}
	h := eng.Handler()
	l := &serveLoad{scheme: serve.SchemeRTR}
	var reqs []*http.Request
	for _, sf := range fails {
		for ci, c := range sf.cases {
			desc := sf.client
			if ci > 0 {
				desc = sf.canon
			}
			req, _, rerr := l.request(sf, desc, c)
			if rerr != nil {
				return rerr
			}
			reqs = append(reqs, req)
		}
	}
	rw := respWriter{h: make(http.Header), body: make([]byte, 0, 1<<16)}
	ft := lg.probe("serve.first_touch", len(reqs), tracePasses, nil, func(i int) {
		rw.reset()
		h.ServeHTTP(&rw, reqs[i])
		if rw.code != http.StatusOK {
			err = fmt.Errorf("scale first touch %d: status %d: %s", i, rw.code, rw.body)
		}
	})
	lg.set("serve.first_touch_ms", meanNs(ft)/perMs)
	return err
}
