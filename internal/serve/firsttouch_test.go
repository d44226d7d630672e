package serve

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestWarmRepeatQueryFast is the first-touch regression test for the
// serving path at scale: the first query against a failure pays entry
// warm-up, lazy-table materialization, phase-1 collection, and the
// pruned-view shortest-path computation; a repeat of the same query
// must ride the memoized entry *and* the memoized prepared session
// (plus the canonical-descriptor fast path that skips re-parsing the
// instance), making it orders of magnitude cheaper — and byte-identical
// apart from the cache-hit marker. Before the per-entry session
// memoization every repeat re-paid the session's shortest-path
// recompute and the descriptor parse (~12 ms/op at 3×10^4 nodes,
// ~0.6 s first-touch flavors at 10^5).
func TestWarmRepeatQueryFast(t *testing.T) {
	if testing.Short() {
		t.Skip("scale world build in -short mode")
	}
	e, q := scaleEngineQuery(t, 20000)

	start := time.Now()
	first, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	firstTouch := time.Since(start)
	if first.Disposition != DispRecovery {
		t.Fatalf("disposition %q, want recovery", first.Disposition)
	}

	const reps = 50
	start = time.Now()
	var warm *Response
	for i := 0; i < reps; i++ {
		if warm, err = e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	warmOp := time.Since(start) / reps
	t.Logf("first touch %v, warm repeat %v/op", firstTouch, warmOp)

	// "Orders of magnitude": the warm repeat shares the entry, the
	// parsed instance, and the prepared session, so only the
	// per-destination tail remains. A 500× floor leaves wide scheduling
	// slack while still failing if any of the three memoizations
	// regresses to per-query cost.
	if warmOp > firstTouch/500 {
		t.Errorf("warm repeat %v/op, want < first touch %v / 500", warmOp, firstTouch)
	}
	if !warm.CacheHit {
		t.Error("repeat query missed the converged-state cache")
	}

	// Byte-identical answers: only the cache-hit marker may differ.
	first.CacheHit = false
	warm.CacheHit = false
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(warm)
	if string(a) != string(b) {
		t.Errorf("warm answer differs from first-touch answer:\n%s\n%s", a, b)
	}
}

// scaleEngineQuery serves a generated scale-mode world of the given
// size (three links a node) as "big" and draws one recovery query on
// it, its failure in the canonical spelling.
func scaleEngineQuery(t testing.TB, nodes int) (*Engine, Query) {
	t.Helper()
	topo, err := topology.Generate(
		topology.GenParams{Name: "big", Nodes: nodes, Links: 3 * nodes, Tiers: true},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorldFromConfig(topo, sim.WorldConfig{Scale: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Worlds: map[string]*sim.World{"big": w}, CacheEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for draws := 0; draws < 50; draws++ {
		sc := failure.RandomScenario(topo, rng)
		if rec, _ := sim.ScaleCasesFromScenario(w, sc, rng, 8); len(rec) > 0 {
			c := rec[0]
			return e, Query{Topo: "big", Failure: sc.Desc(), Scheme: SchemeRTR,
				Src: int(c.Initiator), Dst: int(c.Dst)}
		}
	}
	t.Fatal("no recovery case drawn")
	return nil, Query{}
}

// clientSpelling respells a canonical descriptor the way a client
// composing it by hand would, a blank after every comma, so it is not
// found under its own bytes and has to be fingerprinted.
func clientSpelling(desc string) string { return strings.ReplaceAll(desc, ",", ", ") }

// TestWarmHitBuildsNothingTopologySized pins the property behind the
// two-stage instance handling, not a timing: a warm query whose
// descriptor is not byte-canonical is fingerprinted from its text, and
// must not rebuild the failure mask (one bool per node and per link)
// or anything else that grows with the topology.
func TestWarmHitBuildsNothingTopologySized(t *testing.T) {
	e, q := scaleEngineQuery(t, 4096)
	q.Failure = clientSpelling(q.Failure)
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	const reps = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		resp, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit || resp.Disposition != DispRecovery {
			t.Fatalf("warm query: hit %v, disposition %q", resp.CacheHit, resp.Disposition)
		}
	}
	runtime.ReadMemStats(&after)
	g := e.World("big").Topo.G
	perQuery := (after.TotalAlloc - before.TotalAlloc) / reps
	t.Logf("%d bytes per warm client-spelled query on %d nodes + %d links", perQuery, g.NumNodes(), g.NumLinks())
	if mask := uint64(g.NumNodes() + g.NumLinks()); perQuery >= mask {
		t.Errorf("a warm client-spelled query allocates %d bytes, a failure mask is %d", perQuery, mask)
	}
}
