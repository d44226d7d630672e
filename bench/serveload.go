package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Plan sizes are source constants, never derived from timing. Failures
// per topology are perfect squares: the centres come from a square grid.
const (
	serveSetupRepeats = 3

	hotFailuresPerTopo = 64
	hotPairsPerFailure = 8

	missCacheEntries    = 64 // the daemon default
	missFailuresPerTopo = 64
	missQueriesPerVisit = 4

	scaleNodes           = 1 << 14 // sim.ScaleWorldNodes: the smallest world that is scale mode by itself
	scaleFailures        = 9
	scalePairsPerFailure = 16
	scaleDstSample       = 32
	scaleRadius          = 50
	scaleSetupRepeats    = 2
	scaleTopoName        = "scale"
)

// servedFailure is one failure instance of a serve plan with the recovery
// cases its queries ask about.
type servedFailure struct {
	topo   string
	sc     *failure.Scenario
	client string // the spelling a client composes: parsed on every query
	canon  string // the engine's fingerprint: replayed from a response
	cases  []*sim.Case
}

// serveLoad is the three served-query workloads. They share the handler
// path and differ in the worlds served, the cache size and the op plan.
type serveLoad struct {
	name    string
	seed    int64
	workdir string
	corrupt bool
	scheme  string
	tail    float64
	k       int
	cyclic  bool     // serve_miss: failures visited in a cycle longer than the cache
	names   []string // Table II topologies served (nil for the scale world)
	// Plan sizes: failures per world and queries per failure (tests
	// shrink them).
	failures, queries int

	fails  []servedFailure
	reqs   []*http.Request // the fixed op plan
	touch  []*http.Request // set-up's first-touch pass
	expect [][]byte        // per op: the `case` record sim.RunAllN produces
	ref    []uint64        // per op: body hash of the priming pass
	urls   []string
	cache  int

	snap  string  // the scale world's snapshot, removed on close
	steps []int64 // per set-up step: minimum over all repeats so far

	eng *serve.Engine
	h   http.Handler
	rw  respWriter
}

func newServeLoad(name string, cfg runConfig) *serveLoad {
	l := &serveLoad{
		name: name, seed: cfg.seed, workdir: cfg.workdir, corrupt: cfg.corruptExpected,
		scheme: serve.SchemeAll, k: serveSetupRepeats, names: topology.ASNames(),
	}
	switch name {
	case wlServeHot:
		l.tail = 0.90
		l.failures, l.queries = hotFailuresPerTopo, hotPairsPerFailure
	case wlServeMiss:
		l.tail = 0.95
		l.cyclic = true
		l.failures, l.queries = missFailuresPerTopo, missQueriesPerVisit
	case wlScaleServe:
		l.tail = 0.90
		l.scheme = serve.SchemeRTR
		l.k = scaleSetupRepeats
		l.names = nil
		l.failures, l.queries = scaleFailures, scalePairsPerFailure
	}
	l.rw.h = make(http.Header)
	l.rw.body = make([]byte, 0, 1<<20)
	return l
}

func (l *serveLoad) units() int      { return len(l.reqs) }
func (l *serveLoad) opsPerUnit() int { return 1 }
func (l *serveLoad) tailQ() float64  { return l.tail }
func (l *serveLoad) latGroup() int   { return 1 }
func (l *serveLoad) setupK() int     { return l.k }
func (l *serveLoad) minPasses() int  { return 30 }
func (l *serveLoad) endPass() int    { return 0 }

// close removes the snapshot and drops the engine and plan, so a traced
// run's ledger starts from an empty heap.
func (l *serveLoad) close() {
	if l.snap != "" {
		os.Remove(l.snap)
	}
	*l = serveLoad{}
}

func (l *serveLoad) planHash() string {
	h := newPlanHash()
	for _, u := range l.urls {
		fmt.Fprintln(h, u)
	}
	return h.hex()
}

// worldSteps is the number of timed steps buildWorlds takes: one per
// Table II world, or snapshot read + world build for the scale world.
func (l *serveLoad) worldSteps() int {
	if l.names == nil {
		return 2
	}
	return len(l.names)
}

// buildWorlds builds the worlds the workload serves from scratch, timing
// each step into steps (keeping minima). The scale world is read back from
// its snapshot, the way rtrsimd -snapshot starts.
func (l *serveLoad) buildWorlds(steps []int64) (map[string]*sim.World, error) {
	if l.names != nil {
		return buildWorlds(l.names, steps)
	}
	t0 := now()
	t, err := readSnapshot(l.snap)
	keepMin(&steps[0], since(t0))
	if err != nil {
		return nil, err
	}
	t0 = now()
	w, err := sim.NewWorldFromConfig(t, sim.WorldConfig{})
	keepMin(&steps[1], since(t0))
	if err != nil {
		return nil, err
	}
	return map[string]*sim.World{scaleTopoName: w}, nil
}

// writeScaleSnapshot synthesises the scale world once and writes it as a
// binary snapshot under -workdir.
func (l *serveLoad) writeScaleSnapshot() error {
	topo, err := topology.Generate(scaleParams(), rand.New(rand.NewSource(topoSeed)))
	if err != nil {
		return err
	}
	l.snap = filepath.Join(l.workdir, fmt.Sprintf("scale-%d-%d.snap", scaleNodes, l.seed))
	return writeSnapshot(l.snap, topo)
}

// setup builds the op plan on a throw-away world set and then repeats
// the workload's set-up steps k times on fresh state: the world builds,
// serve.New, and the first-touch pass (the hot workloads' warm-up of every
// entry, session and tree; the miss workload's cache fill). The last
// repeat's engine serves the measured passes.
func (l *serveLoad) setup(k int) error {
	if l.names == nil {
		if err := l.writeScaleSnapshot(); err != nil {
			return err
		}
	}
	worlds, err := l.buildWorlds(newSteps(l.worldSteps()))
	if err != nil {
		return err
	}
	if err := l.plan(worlds); err != nil {
		return err
	}
	worlds = nil
	l.steps = newSteps(l.worldSteps() + 1 + len(l.touch))
	return l.repeatSetup(k)
}

func (l *serveLoad) setupAgain(k int) (float64, error) {
	err := l.repeatSetup(k)
	return sumSeconds(l.steps), err
}

// repeatSetup runs the set-up steps k times on fresh state, keeping each
// step's minimum in l.steps.
func (l *serveLoad) repeatSetup(k int) error {
	for r := 0; r < k; r++ {
		l.eng, l.h = nil, nil
		runtime.GC()
		worlds, err := l.buildWorlds(l.steps[:l.worldSteps()])
		if err != nil {
			return err
		}
		s := l.steps[l.worldSteps():]
		t0 := now()
		eng, err := serve.New(serve.Config{Worlds: worlds, CacheEntries: l.cache})
		keepMin(&s[0], since(t0))
		if err != nil {
			return err
		}
		l.eng, l.h = eng, eng.Handler()
		for i, req := range l.touch {
			t0 := now()
			l.rw.reset()
			l.h.ServeHTTP(&l.rw, req)
			keepMin(&s[1+i], since(t0))
			if l.rw.code != http.StatusOK {
				return fmt.Errorf("first touch %d: status %d: %s", i, l.rw.code, l.rw.body)
			}
		}
	}
	return nil
}

func scaleParams() topology.GenParams {
	return topology.GenParams{Name: scaleTopoName, Nodes: scaleNodes, Links: 3 * scaleNodes, Tiers: true}
}

func writeSnapshot(path string, t *topology.Topology) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := topology.WriteBinary(f, t, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSnapshot(path string) (*topology.Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.ReadBinary(f, nil)
}

// plan draws the failures and pairs from -seed, lays out the op order,
// and computes every op's expected `case` record with sim.RunAllN.
func (l *serveLoad) plan(worlds map[string]*sim.World) error {
	rng := rand.New(rand.NewSource(seed.Derive(l.seed, l.name)))
	l.fails = l.fails[:0]
	for _, as := range l.names {
		l.fails = append(l.fails, drawFailures(as, worlds[as], rng, l.failures, l.queries)...)
	}
	if l.names == nil {
		l.fails = drawScaleFailures(worlds[scaleTopoName], rng, seed.Derive(l.seed, l.name, "destinations"), l.failures, l.queries)
	}
	// A hot plan's cache holds every failure; the cyclic plan keeps the
	// daemon's default and visits more failures than that.
	l.cache = len(l.fails)
	if l.cyclic {
		l.cache = missCacheEntries
	}

	// Expected answers: one batched sim run per failure, projected onto
	// the schemes the query asks for.
	type opRef struct{ f, c int }
	expect := make([][][]byte, len(l.fails))
	for fi, sf := range l.fails {
		outs := sim.RunAllN(worlds[sf.topo], sf.cases, 1)
		expect[fi] = make([][]byte, len(outs))
		for ci := range outs {
			rec := outs[ci].Record()
			if l.scheme == serve.SchemeRTR {
				rec.FCP, rec.MRC = sim.FCPRecord{}, sim.MRCRecord{}
			}
			b, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			expect[fi][ci] = b
		}
	}

	// Visit order: failures in a seed-drawn order, each with its queries
	// in turn. The cyclic plan keeps it — first query in the client
	// spelling (the miss), the rest replaying the canonical fingerprint
	// the first response carried — and the hot plans shuffle the ops, all
	// in the client spelling.
	order := rng.Perm(len(l.fails))
	var ops []opRef
	for _, fi := range order {
		for ci := range l.fails[fi].cases {
			ops = append(ops, opRef{fi, ci})
		}
	}
	request := func(o opRef) (*http.Request, string, error) {
		sf := l.fails[o.f]
		desc := sf.client
		if l.cyclic && o.c > 0 {
			desc = sf.canon
		}
		return l.request(sf, desc, sf.cases[o.c])
	}
	// The first-touch pass follows the visit order, so the cache it
	// leaves behind is the one every pass boundary sees: every op once
	// for a hot plan, one query per failure for the cyclic one.
	l.touch = nil
	for _, o := range ops {
		if l.cyclic && o.c > 0 {
			continue
		}
		req, _, err := request(o)
		if err != nil {
			return err
		}
		l.touch = append(l.touch, req)
	}
	if !l.cyclic {
		rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	}
	l.reqs, l.expect, l.urls = nil, nil, nil
	for _, o := range ops {
		req, u, err := request(o)
		if err != nil {
			return err
		}
		l.reqs = append(l.reqs, req)
		l.urls = append(l.urls, u)
		l.expect = append(l.expect, expect[o.f][o.c])
	}
	if l.corrupt {
		l.expect[0] = append([]byte(nil), l.expect[0]...)
		l.expect[0][len(l.expect[0])/2] ^= 1
	}
	return nil
}

func (l *serveLoad) request(sf servedFailure, desc string, c *sim.Case) (*http.Request, string, error) {
	u := fmt.Sprintf("http://bench/recover?topo=%s&failure=%s&src=%d&dst=%d&scheme=%s",
		sf.topo, url.QueryEscape(desc), c.Initiator, c.Dst, l.scheme)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	return req, u, err
}

// strata is the jittered grid a plan draws its disks from. The paper's
// model is a uniform centre and a uniform radius; drawing n disks
// independently leaves a plan's cost at the mercy of how many large disks
// it happened to get (a radius-300 disk covers 9x the area of a
// radius-100 one), and ten seeds then disagree by more than any bound.
// Stratified sampling keeps both marginals uniform and every draw
// seed-dependent, but gives every plan one centre per grid cell and one
// radius per band, paired at random.
type strata struct {
	g          int   // the grid is g x g cells
	cell       []int // cell[k] is the k-th disk's cell
	rmin, rmax float64
}

// newStrata lays out n disks; n is rounded down to a perfect square grid
// for the centres (disks beyond g*g reuse cells in turn).
func newStrata(rng *rand.Rand, n int, rmin, rmax float64) strata {
	g := int(math.Sqrt(float64(n)))
	st := strata{g: g, cell: make([]int, n), rmin: rmin, rmax: rmax}
	for k, c := range rng.Perm(n) {
		st.cell[k] = c % (g * g)
	}
	return st
}

// disk draws the k-th disk: centre uniform in its cell, radius uniform in
// its band. anywhere lifts the cell constraint (for cells no router
// lives near).
func (st strata) disk(rng *rand.Rand, k int, anywhere bool) geom.Disk {
	n := float64(len(st.cell))
	cx, cy := float64(st.cell[k]%st.g), float64(st.cell[k]/st.g)
	x := (cx + rng.Float64()) / float64(st.g)
	y := (cy + rng.Float64()) / float64(st.g)
	if anywhere {
		x, y = rng.Float64(), rng.Float64()
	}
	return geom.Disk{
		Center: geom.Point{X: x * topology.Width, Y: y * topology.Height},
		Radius: st.rmin + (float64(k)+rng.Float64())/n*(st.rmax-st.rmin),
	}
}

// strataTries is how often a disk is redrawn inside its cell before the
// cell is given up as empty.
const strataTries = 8

// drawStratified draws n stratified disk failures on one world. pick
// chooses a failure's recovery cases; a disk it returns nil for is redrawn.
func drawStratified(topo string, w *sim.World, rng *rand.Rand, n int, rmin, rmax float64, pick func(*failure.Scenario) []*sim.Case) []servedFailure {
	st := newStrata(rng, n, rmin, rmax)
	out := make([]servedFailure, 0, n)
	for k := 0; k < n; k++ {
		for try := 0; ; try++ {
			sc := failure.NewScenario(w.Topo, st.disk(rng, k, try >= strataTries))
			if cases := pick(sc); cases != nil {
				out = append(out, newServedFailure(topo, sc, cases))
				break
			}
		}
	}
	return out
}

// drawFailures draws n failures of the paper's model on one Table II
// world, each with recovery cases, and samples `pairs` of those per
// failure (cycling when it has fewer).
func drawFailures(topo string, w *sim.World, rng *rand.Rand, n, pairs int) []servedFailure {
	return drawStratified(topo, w, rng, n, failure.MinRadius, failure.MaxRadius, func(sc *failure.Scenario) []*sim.Case {
		rec, irr := sim.CasesFromScenario(w, sc)
		all := append(rec, irr...)
		if len(all) == 0 {
			return nil
		}
		perm := rng.Perm(len(all))
		cases := make([]*sim.Case, pairs)
		for i := range cases {
			cases[i] = all[perm[i%len(perm)]]
		}
		return cases
	})
}

// drawScaleFailures draws n failures on the scale world, each with one
// (initiator, failed next hop) that has `pairs` recovery cases among the
// plan's sampled destinations, and keeps those: one recovery session per
// failure, as for one router's traffic into the failed area. Every failure
// samples the same destinations (dstSeed), so the pre-failure trees the
// lazy tables materialise are bounded by the sample, not by the number of
// failures.
//
// The radius is fixed, as the Fig. 11 sweeps pin it: the scale world packs
// two orders of magnitude more routers into the paper's plane than a
// Table II topology, so radius 50 takes out about as many routers (~30)
// as the paper's largest disks do there.
func drawScaleFailures(w *sim.World, rng *rand.Rand, dstSeed int64, n, pairs int) []servedFailure {
	return drawStratified(scaleTopoName, w, rng, n, scaleRadius, scaleRadius, func(sc *failure.Scenario) []*sim.Case {
		rec, irr := sim.ScaleCasesFromScenario(w, sc, rand.New(rand.NewSource(dstSeed)), scaleDstSample)
		all := append(rec, irr...)
		sort.SliceStable(all, func(a, b int) bool {
			if all[a].Initiator != all[b].Initiator {
				return all[a].Initiator < all[b].Initiator
			}
			return all[a].Trigger < all[b].Trigger
		})
		for i := 0; i < len(all); {
			j := i
			for j < len(all) && all[j].Initiator == all[i].Initiator && all[j].Trigger == all[i].Trigger {
				j++
			}
			if j-i >= pairs {
				return all[i : i+pairs]
			}
			i = j
		}
		return nil
	})
}

func newServedFailure(topo string, sc *failure.Scenario, cases []*sim.Case) servedFailure {
	d := sc.Areas()[0]
	return servedFailure{
		topo:   topo,
		sc:     sc,
		client: clientSpelling(d),
		canon:  sc.Desc(),
		cases:  cases,
	}
}

// clientSpelling writes a disk the way a client composing the descriptor
// by hand would: same numbers as the canonical fingerprint, blanks after
// the commas, so the engine has to parse and re-fingerprint it.
func clientSpelling(d geom.Disk) string {
	return fmt.Sprintf("disk(%g, %g, %g)", d.Center.X, d.Center.Y, d.Radius)
}

// prime runs one unmeasured pass, checks every body against the expected
// record, and keeps the body hashes every measured pass must reproduce.
func (l *serveLoad) prime() error {
	l.ref = make([]uint64, len(l.reqs))
	for i := range l.reqs {
		l.op(i)
		l.ref[i] = fnv64(l.rw.body)
		if !l.check(i) && !l.corrupt {
			return fmt.Errorf("priming op %d (%s): status %d, body %s, want case %s",
				i, l.urls[i], l.rw.code, l.rw.body, l.expect[i])
		}
	}
	return nil
}

// op is one timed unit: one GET through the daemon's handler into the
// reused response writer.
func (l *serveLoad) op(i int) {
	l.rw.reset()
	l.h.ServeHTTP(&l.rw, l.reqs[i])
}

var caseKey = []byte(`"case":`)

// check (untimed) requires a 200, the expected `case` record byte for
// byte, and the same whole body as the priming pass.
func (l *serveLoad) check(i int) bool {
	if l.rw.code != http.StatusOK || fnv64(l.rw.body) != l.ref[i] {
		return false
	}
	at := bytes.Index(l.rw.body, caseKey)
	if at < 0 {
		return false
	}
	got := l.rw.body[at+len(caseKey):]
	want := l.expect[i]
	// The record is the response's last field: `"case":{...}}\n`.
	return len(got) == len(want)+2 && bytes.Equal(got[:len(want)], want)
}

// respWriter is the one response writer every op reuses.
type respWriter struct {
	h    http.Header
	body []byte
	code int
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	w.body = w.body[:0]
	w.code = http.StatusOK
}
