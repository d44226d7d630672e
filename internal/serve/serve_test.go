package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/topology"
)

const testSeed = 3

// simRecord computes the sim harness's own projection of one case:
// cold forward truth tree, the three exported runners, Outcome.Record.
// The differential tests compare daemon responses against this, byte
// for byte.
func simRecord(t *testing.T, w *sim.World, c *sim.Case) sim.CaseRecord {
	t.Helper()
	truth := spt.Compute(w.Topo.G, c.Initiator, c.Scenario)
	out := sim.Outcome{Case: c, Truth: truth}
	var err error
	if out.RTR, err = sim.RunRTR(w, c, truth); err != nil && out.Err == nil {
		out.Err = err
	}
	if out.FCP, err = sim.RunFCP(w, c, truth); err != nil && out.Err == nil {
		out.Err = err
	}
	if out.MRC, err = sim.RunMRC(w, c, truth); err != nil && out.Err == nil {
		out.Err = err
	}
	return out.Record()
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDifferentialAllTopologies proves the serving layer is a
// different execution shape, not a different answer: on every bundled
// topology, responses served through the warm-cache engine carry case
// records byte-identical to the sim harness's per-case outcomes.
func TestDifferentialAllTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world per bundled topology")
	}
	for _, name := range topology.ASNames() {
		t.Run(name, func(t *testing.T) {
			e, err := New(Config{Topos: []string{name}, Seed: testSeed, CacheEntries: 8, Check: true})
			if err != nil {
				t.Fatal(err)
			}
			// The grading reference is a separately built world (same
			// deterministic synthesis), so identical answers cannot come
			// from shared in-memory state.
			w, err := sim.NewWorld(name, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			checked := 0
			for draws := 0; checked < 12 && draws < sim.MaxCollectDraws; draws++ {
				sc := failure.RandomScenario(w.Topo, rng)
				rec, irr := sim.CasesFromScenario(w, sc)
				for _, c := range append(rec, irr...) {
					if checked >= 12 {
						break
					}
					resp, err := e.Query(Query{
						Topo: name, Failure: c.Scenario.Desc(),
						Src: int(c.Initiator), Dst: int(c.Dst),
					})
					if err != nil {
						t.Fatalf("query (%d -> %d, %s): %v", c.Initiator, c.Dst, c.Scenario.Desc(), err)
					}
					if resp.Disposition != DispRecovery {
						t.Fatalf("enumerated case served as %q", resp.Disposition)
					}
					if resp.Recoverable != c.Recoverable {
						t.Fatalf("recoverable: served %v, sim %v", resp.Recoverable, c.Recoverable)
					}
					if resp.Failure != c.Scenario.Desc() {
						t.Fatalf("fingerprint %q != descriptor %q", resp.Failure, c.Scenario.Desc())
					}
					want := simRecord(t, w, c)
					if got, exp := mustJSON(t, resp.Case), mustJSON(t, &want); got != exp {
						t.Fatalf("case record differs:\n served %s\n sim    %s", got, exp)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no cases checked")
			}
		})
	}
}

// TestSingleSchemeProjection pins the single-scheme contract: a
// scheme-restricted query runs only that protocol and fills only its
// sub-record, which equals the corresponding slice of the all-scheme
// answer.
func TestSingleSchemeProjection(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	q := testCaseQuery(t, e, "AS1239")
	all, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var zero sim.CaseRecord
	for _, scheme := range []string{SchemeRTR, SchemeFCP, SchemeMRC} {
		qq := q
		qq.Scheme = scheme
		resp, err := e.Query(qq)
		if err != nil {
			t.Fatal(err)
		}
		got, ref := *resp.Case, *all.Case
		if scheme != SchemeRTR {
			if mustJSON(t, got.RTR) != mustJSON(t, zero.RTR) {
				t.Errorf("%s query filled the RTR sub-record", scheme)
			}
			got.RTR, ref.RTR = zero.RTR, zero.RTR
		}
		if scheme != SchemeFCP {
			got.FCP, ref.FCP = zero.FCP, zero.FCP
		}
		if scheme != SchemeMRC {
			got.MRC, ref.MRC = zero.MRC, zero.MRC
		}
		if mustJSON(t, got) != mustJSON(t, ref) {
			t.Errorf("%s sub-record differs from the all-scheme answer:\n %s\n %s",
				scheme, mustJSON(t, got), mustJSON(t, ref))
		}
	}
}

// TestDefaultSchemeAndRegistryServing pins the -scheme plumbing: an
// unknown default never constructs an engine, a configured default
// answers queries that omit a scheme (through the generic registry
// record for non-builtin schemes), and an explicit query scheme always
// wins over the default.
func TestDefaultSchemeAndRegistryServing(t *testing.T) {
	if _, err := New(Config{Topos: []string{"AS1239"}, Seed: testSeed, DefaultScheme: "ospf"}); err == nil {
		t.Fatal("unknown default scheme must fail construction")
	}
	e, err := New(Config{Topos: []string{"AS1239"}, Seed: testSeed, CacheEntries: 4, DefaultScheme: "rtr-spread"})
	if err != nil {
		t.Fatal(err)
	}
	q := testCaseQuery(t, e, "AS1239")
	resp, err := e.Query(q) // no scheme → the default applies
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scheme != "rtr-spread" || resp.SchemeCase == nil || resp.Case != nil {
		t.Fatalf("defaulted query: scheme=%q schemeCase=%v case=%v", resp.Scheme, resp.SchemeCase, resp.Case)
	}
	explicit := q
	explicit.Scheme = "rtr-spread"
	eresp, err := e.Query(explicit)
	if err != nil {
		t.Fatal(err)
	}
	resp.CacheHit, eresp.CacheHit = false, false // first query warms the converged state
	if mustJSON(t, resp) != mustJSON(t, eresp) {
		t.Error("defaulted and explicit rtr-spread answers differ")
	}
	all := q
	all.Scheme = SchemeAll
	aresp, err := e.Query(all)
	if err != nil {
		t.Fatal(err)
	}
	if aresp.Scheme != SchemeAll || aresp.Case == nil || aresp.SchemeCase != nil {
		t.Errorf("explicit all did not override the default: scheme=%q", aresp.Scheme)
	}
}

// testEngine builds a single-topology engine once per (name, cache)
// pair within a test.
func testEngine(t *testing.T, name string, cacheEntries int) *Engine {
	t.Helper()
	e, err := New(Config{Topos: []string{name}, Seed: testSeed, CacheEntries: cacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testCaseQuery finds one recovery-disposition query on the engine's
// world deterministically.
func testCaseQuery(t *testing.T, e *Engine, name string) Query {
	t.Helper()
	w := e.World(name)
	rng := rand.New(rand.NewSource(5))
	for draws := 0; draws < sim.MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, _ := sim.CasesFromScenario(w, sc)
		if len(rec) == 0 {
			continue
		}
		c := rec[0]
		return Query{Topo: name, Failure: sc.Desc(), Src: int(c.Initiator), Dst: int(c.Dst)}
	}
	t.Fatal("no recoverable case found")
	return Query{}
}

// TestDispositionsAndErrors covers the non-recovery answers and the
// client-error contract.
func TestDispositionsAndErrors(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	w := e.World("AS1239")
	n := w.Topo.G.NumNodes()

	// A live pair with no failure in the way forwards normally.
	resp, err := e.Query(Query{Topo: "AS1239", Failure: "none", Src: 0, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Disposition != DispForwarded || resp.PathAffected {
		t.Errorf("no-failure query: got %q (affected %v), want forwarded/false", resp.Disposition, resp.PathAffected)
	}
	if resp.ConvergedHops == 0 {
		t.Error("forwarded response missing converged route extras")
	}

	// A failed initiator is a legitimate answer, not an error.
	rng := rand.New(rand.NewSource(9))
	for {
		sc := failure.RandomScenario(w.Topo, rng)
		down := sc.FailedNodes()
		if len(down) == 0 {
			continue
		}
		dst := 0
		if int(down[0]) == dst {
			dst = 1
		}
		resp, err := e.Query(Query{Topo: "AS1239", Failure: sc.Desc(), Src: int(down[0]), Dst: dst})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Disposition != DispInitiatorDown {
			t.Errorf("failed initiator: got %q, want %q", resp.Disposition, DispInitiatorDown)
		}
		break
	}

	// Client mistakes: every rejection class is a ClientError.
	bad := []Query{
		{Topo: "AS9999", Failure: "none", Src: 0, Dst: 1},
		{Topo: "AS1239", Failure: "garbage(", Src: 0, Dst: 1},
		// Descriptors that parse but are not failures.
		{Topo: "AS1239", Failure: "disk(NaN,1,1)", Src: 0, Dst: 1},
		{Topo: "AS1239", Failure: "disk(1,1,-5)", Src: 0, Dst: 1},
		{Topo: "AS1239", Failure: strings.Repeat("disk(1,1,5);", failure.MaxInstanceTerms) + "disk(1,1,5)", Src: 0, Dst: 1},
		{Topo: "AS1239", Failure: "none", Src: 0, Dst: n},
		{Topo: "AS1239", Failure: "none", Src: 2, Dst: 2},
		{Topo: "AS1239", Failure: "none", Src: 0, Dst: 1, Scheme: "ospf"},
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("query %+v accepted", q)
		} else if _, ok := err.(*ClientError); !ok {
			t.Errorf("query %+v: error %v is not a ClientError", q, err)
		}
	}
	if st := e.Stats(); st.ClientErrors != int64(len(bad)) {
		t.Errorf("client errors: counted %d, want %d", st.ClientErrors, len(bad))
	}
}

// TestCacheKeyCanonicalization pins what the cache key canonicalises:
// blanks, the spelling of a number, and the order, repetition and
// position of explicit links all land on one entry, so the second
// query is a hit even though its descriptor string differs. The order
// of the areas is part of the fingerprint: swapping two is another
// entry.
func TestCacheKeyCanonicalization(t *testing.T) {
	e := testEngine(t, "AS1239", 8)
	q := testCaseQuery(t, e, "AS1239")
	ask := func(desc string) *Response {
		t.Helper()
		resp, err := e.Query(Query{Topo: q.Topo, Failure: desc, Src: q.Src, Dst: q.Dst})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := ask(q.Failure)
	if first.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	sc, err := failure.ParseInstance(e.World(q.Topo).Topo, first.Failure)
	if err != nil {
		t.Fatal(err)
	}
	d := sc.Areas()[0]
	for _, desc := range []string{
		first.Failure, // the fingerprint itself round-trips to the same key
		" " + first.Failure,
		strings.ReplaceAll(first.Failure, ",", " ,\t"),
		fmt.Sprintf("disk(%.20e,+%v,%g)", d.Center.X, d.Center.Y, d.Radius),
	} {
		if resp := ask(desc); !resp.CacheHit || resp.Failure != first.Failure {
			t.Errorf("respelled descriptor %q: hit %v, fingerprint %q", desc, resp.CacheHit, resp.Failure)
		}
	}
	if st := e.Stats(); st.CacheMisses != 1 || st.CacheHits != 4 {
		t.Errorf("stats: %d misses / %d hits, want 1 / 4", st.CacheMisses, st.CacheHits)
	}

	withLinks := ask(first.Failure + ";links(3,5)")
	if withLinks.CacheHit || withLinks.Failure != first.Failure+";links(3,5)" {
		t.Fatalf("links variant: hit %v, fingerprint %q", withLinks.CacheHit, withLinks.Failure)
	}
	for _, desc := range []string{
		first.Failure + ";links(5, 3,5)",
		"links(5);" + first.Failure + ";links(+3)",
	} {
		if resp := ask(desc); !resp.CacheHit || resp.Failure != withLinks.Failure {
			t.Errorf("respelled links %q: hit %v, fingerprint %q", desc, resp.CacheHit, resp.Failure)
		}
	}

	ab := ask(first.Failure + ";disk(0,0,1)")
	ba := ask("disk(0,0,1);" + first.Failure)
	if ab.CacheHit || ba.CacheHit || ab.Failure == ba.Failure {
		t.Errorf("swapped areas share an entry: hits %v/%v, fingerprints %q / %q",
			ab.CacheHit, ba.CacheHit, ab.Failure, ba.Failure)
	}
}

// TestExplicitLinksKeyTheCache: "disk;links(k)" used to fingerprint as
// the disk alone, so it was answered from the disk's cached state. It
// must be its own entry, and failing a link the recovery depends on
// must change the answer.
func TestExplicitLinksKeyTheCache(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	q := testCaseQuery(t, e, "AS1239")
	q.Scheme = SchemeRTR
	a, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	a.CacheHit = false
	differs := false
	for k := 0; k < e.World(q.Topo).Topo.G.NumLinks() && !differs; k++ {
		qb := q
		qb.Failure = fmt.Sprintf("%s;links(%d)", a.Failure, k)
		b, err := e.Query(qb)
		if err != nil {
			t.Fatal(err)
		}
		if b.CacheHit || b.Failure != qb.Failure {
			t.Fatalf("%q after %q: hit %v, fingerprint %q", qb.Failure, a.Failure, b.CacheHit, b.Failure)
		}
		b.Failure = a.Failure
		differs = mustJSON(t, a) != mustJSON(t, b)
	}
	if !differs {
		t.Error("no explicitly failed link changed the answer")
	}
}

// TestBatchMatchesSingles proves the batch path is an amortization,
// not a different answer: each batch result is byte-identical to the
// corresponding single query (modulo the cache-hit flag), and the
// whole batch costs exactly one converged-state lookup.
func TestBatchMatchesSingles(t *testing.T) {
	eb := testEngine(t, "AS1239", 8)
	es := testEngine(t, "AS1239", 8)
	w := eb.World("AS1239")
	rng := rand.New(rand.NewSource(5))
	var b Batch
	for draws := 0; len(b.Pairs) == 0 && draws < sim.MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		cases := append(rec, irr...)
		if len(cases) < 3 {
			continue
		}
		if len(cases) > 6 {
			cases = cases[:6]
		}
		b = Batch{Topo: "AS1239", Failure: sc.Desc()}
		for _, c := range cases {
			b.Pairs = append(b.Pairs, Pair{Src: int(c.Initiator), Dst: int(c.Dst)})
		}
	}
	if len(b.Pairs) == 0 {
		t.Fatal("no scenario with enough cases")
	}

	resp, err := eb.QueryBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("first batch reported a warm lookup")
	}
	if len(resp.Results) != len(b.Pairs) {
		t.Fatalf("%d results for %d pairs", len(resp.Results), len(b.Pairs))
	}
	for i, p := range b.Pairs {
		single, err := es.Query(Query{Topo: b.Topo, Failure: b.Failure, Src: p.Src, Dst: p.Dst})
		if err != nil {
			t.Fatal(err)
		}
		got, want := *resp.Results[i], *single
		got.CacheHit, want.CacheHit = false, false
		if mustJSON(t, &got) != mustJSON(t, &want) {
			t.Errorf("pair %d differs:\n batch  %s\n single %s", i, mustJSON(t, &got), mustJSON(t, &want))
		}
	}

	// Accounting: k queries, 1 batch, 1 lookup (a miss); an identical
	// second batch is 1 more lookup (a hit) and comes back warm.
	st := eb.Stats()
	if st.Batches != 1 || st.Queries != int64(len(b.Pairs)) || st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Errorf("after one batch of %d pairs: %+v", len(b.Pairs), st)
	}
	again, err := eb.QueryBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeated batch missed the cache")
	}
	if st := eb.Stats(); st.Batches != 2 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("after the repeated batch: %+v", st)
	}
}

// TestBatchErrors covers the batch rejection classes; all are
// ClientErrors and a malformed batch is rejected whole.
func TestBatchErrors(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	n := e.World("AS1239").Topo.G.NumNodes()
	big := make([]Pair, MaxBatchPairs+1)
	for i := range big {
		big[i] = Pair{Src: 0, Dst: 1}
	}
	bad := []Batch{
		{Topo: "AS1239", Failure: "none"},
		{Topo: "AS1239", Failure: "none", Pairs: big},
		{Topo: "AS9999", Failure: "none", Pairs: []Pair{{Src: 0, Dst: 1}}},
		{Topo: "AS1239", Failure: "garbage(", Pairs: []Pair{{Src: 0, Dst: 1}}},
		{Topo: "AS1239", Failure: "none", Pairs: []Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: n}}},
		{Topo: "AS1239", Failure: "none", Pairs: []Pair{{Src: 2, Dst: 2}}},
		{Topo: "AS1239", Failure: "none", Pairs: []Pair{{Src: 0, Dst: 1}}, Scheme: "ospf"},
	}
	for _, b := range bad {
		if _, err := e.QueryBatch(b); err == nil {
			t.Errorf("batch with %d pairs (%s/%s/%s) accepted", len(b.Pairs), b.Topo, b.Failure, b.Scheme)
		} else if _, ok := err.(*ClientError); !ok {
			t.Errorf("batch error %v is not a ClientError", err)
		}
	}
	if st := e.Stats(); st.ClientErrors != int64(len(bad)) {
		t.Errorf("client errors: counted %d, want %d", st.ClientErrors, len(bad))
	}
}

// TestScaleWorldServing pins the scale serving path: an injected
// pre-built scale-mode world (lazy tables, no MRC) is served under its
// map key without any Table II synthesis, the mrc scheme is a client
// error on it, and an all-scheme recovery answer marks the MRC
// sub-record skipped while RTR and FCP answer normally.
func TestScaleWorldServing(t *testing.T) {
	ws, err := sim.NewWorldFromConfig(topology.PaperExample(), sim.WorldConfig{
		Scale: true,
		Log:   func(string) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Worlds: map[string]*sim.World{"scale-demo": ws}, CacheEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Topologies(); len(got) != 1 || got[0] != "scale-demo" {
		t.Fatalf("served topologies %v, want [scale-demo]", got)
	}

	if _, err := e.Query(Query{Topo: "scale-demo", Failure: "none", Src: 0, Dst: 1, Scheme: SchemeMRC}); err == nil {
		t.Error("mrc scheme accepted on a world without MRC")
	} else if _, ok := err.(*ClientError); !ok {
		t.Errorf("mrc-unavailable error %v is not a ClientError", err)
	}

	rng := rand.New(rand.NewSource(7))
	served := 0
	for draws := 0; served == 0 && draws < sim.MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(ws.Topo, rng)
		rec, _ := sim.CasesFromScenario(ws, sc)
		if len(rec) == 0 {
			continue
		}
		b := Batch{Topo: "scale-demo", Failure: sc.Desc()}
		for _, c := range rec {
			b.Pairs = append(b.Pairs, Pair{Src: int(c.Initiator), Dst: int(c.Dst)})
		}
		resp, err := e.QueryBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range resp.Results {
			if r.Disposition != DispRecovery || r.Case == nil {
				t.Fatalf("pair %d served as %q", i, r.Disposition)
			}
			if !r.Case.MRC.Skipped {
				t.Errorf("pair %d: MRC sub-record not marked skipped on a scale world", i)
			}
			// Recoverable cases still get RTR's Theorem 2 guarantee —
			// scale mode drops MRC, never the paper's protocol.
			if !r.Case.RTR.Recovered {
				t.Errorf("pair %d: RTR failed to recover a recoverable case", i)
			}
		}
		served = len(resp.Results)
	}
	if served == 0 {
		t.Fatal("no recovery case served on the scale world")
	}
}

// TestLRUEviction drives the engine past its capacity with distinct
// instances and checks eviction accounting and recency order.
func TestLRUEviction(t *testing.T) {
	e := testEngine(t, "AS1239", 2)
	mk := func(i int) Query {
		return Query{Topo: "AS1239", Failure: fmt.Sprintf("links(%d)", i), Src: 0, Dst: 1}
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Query(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 4 || st.Evictions != 2 || st.CacheEntries != 2 {
		t.Fatalf("after 4 distinct instances at cap 2: %+v", st)
	}
	// The two most recent instances are warm; the oldest is gone.
	if resp, _ := e.Query(mk(3)); resp == nil || !resp.CacheHit {
		t.Error("most recent instance was evicted")
	}
	if resp, _ := e.Query(mk(0)); resp == nil || resp.CacheHit {
		t.Error("evicted instance reported a cache hit")
	}
}

// TestCacheDisabled pins capacity 0: the cache is disabled entirely,
// so identical queries never hit and each rebuilds the same answer.
func TestCacheDisabled(t *testing.T) {
	e := testEngine(t, "AS1239", 0)
	q := testCaseQuery(t, e, "AS1239")
	a, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit || b.CacheHit {
		t.Error("disabled cache reported a hit")
	}
	if mustJSON(t, a.Case) != mustJSON(t, b.Case) {
		t.Error("uncached rebuilds disagree with each other")
	}
	st := e.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 2 || st.CacheEntries != 0 {
		t.Errorf("disabled-cache stats: %+v", st)
	}
	if HitRate(Stats{}, st) != 0 {
		t.Error("hit rate nonzero with cache disabled")
	}
}
