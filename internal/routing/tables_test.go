package routing

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/spt"
	"repro/internal/topology"
)

func paperSetup(t *testing.T) (*topology.Topology, *Tables, *failure.Scenario) {
	t.Helper()
	topo := topology.PaperExample()
	return topo, ComputeTables(topo), failure.NewScenario(topo, topology.PaperFailureArea())
}

func TestConvergedRoutingPathOfTheNarrative(t *testing.T) {
	topo, tables, _ := paperSetup(t)
	// "the routing path from v7 to v17 is v7 v6 v11 v15 v17".
	nodes, ok := tables.PathNodes(topology.PaperNode(7), topology.PaperNode(17))
	if !ok {
		t.Fatal("no converged path v7 -> v17")
	}
	want := []int{7, 6, 11, 15, 17}
	if len(nodes) != len(want) {
		t.Fatalf("path = %v, want v%v", nodes, want)
	}
	for i, k := range want {
		if nodes[i] != topology.PaperNode(k) {
			t.Fatalf("path[%d] = %d, want v%d (path %v)", i, nodes[i], k, nodes)
		}
	}
	if h, _ := tables.Hops(topology.PaperNode(7), topology.PaperNode(17)); h != 4 {
		t.Errorf("hops = %d, want 4", h)
	}
	_ = topo
}

func TestNextHopAndDist(t *testing.T) {
	_, tables, _ := paperSetup(t)
	v6, v17 := topology.PaperNode(6), topology.PaperNode(17)
	nh, link, ok := tables.NextHop(v6, v17)
	if !ok || nh != topology.PaperNode(11) {
		t.Fatalf("NextHop(v6, v17) = v%d, want v11", nh+1)
	}
	l := tables.Topology().G.Link(link)
	if !l.HasEndpoint(v6) || !l.HasEndpoint(nh) {
		t.Error("returned link does not connect v6 to its next hop")
	}
	if d, ok := tables.Dist(v6, v17); !ok || d != 3 {
		t.Errorf("Dist(v6, v17) = %v, want 3", d)
	}
	// Destination itself has no next hop.
	if _, _, ok := tables.NextHop(v17, v17); ok {
		t.Error("destination must have no next hop")
	}
}

func TestPathFails(t *testing.T) {
	_, tables, sc := paperSetup(t)
	v7, v17 := topology.PaperNode(7), topology.PaperNode(17)
	failed, err := tables.PathFails(v7, v17, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("the narrative path v7->v17 fails at e6-11")
	}
	// v1 -> v2 is far from the failure area.
	failed, err = tables.PathFails(topology.PaperNode(1), topology.PaperNode(2), sc)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Error("v1 -> v2 must be unaffected")
	}
}

func TestTraceDefaultBlocked(t *testing.T) {
	topo, tables, sc := paperSetup(t)
	lv := NewLocalView(topo, sc)
	// From v7 toward v17: blocked at v6 after one hop.
	out, init, hops := TraceDefault(tables, lv, topology.PaperNode(7), topology.PaperNode(17))
	if out != DefaultBlocked {
		t.Fatalf("outcome = %v, want blocked", out)
	}
	if init != topology.PaperNode(6) {
		t.Errorf("initiator = v%d, want v6", init+1)
	}
	if hops != 1 {
		t.Errorf("hops to initiator = %d, want 1", hops)
	}
}

func TestTraceDefaultDelivered(t *testing.T) {
	topo, tables, sc := paperSetup(t)
	lv := NewLocalView(topo, sc)
	out, _, hops := TraceDefault(tables, lv, topology.PaperNode(1), topology.PaperNode(2))
	if out != DefaultDelivered {
		t.Fatalf("outcome = %v, want delivered", out)
	}
	if hops != 1 {
		t.Errorf("hops = %d, want 1", hops)
	}
	// Self-delivery.
	out, _, hops = TraceDefault(tables, lv, topology.PaperNode(1), topology.PaperNode(1))
	if out != DefaultDelivered || hops != 0 {
		t.Errorf("self delivery = %v/%d hops", out, hops)
	}
}

func TestTraceDefaultSourceDown(t *testing.T) {
	topo, tables, sc := paperSetup(t)
	lv := NewLocalView(topo, sc)
	out, _, _ := TraceDefault(tables, lv, topology.PaperNode(10), topology.PaperNode(1))
	if out != DefaultSourceDown {
		t.Errorf("outcome = %v, want source-down", out)
	}
}

func TestTraceDefaultInitiatorDetectsNodeFailureToo(t *testing.T) {
	// Toward v10 (the failed node): its tree neighbors see it as
	// unreachable and become initiators.
	topo, tables, sc := paperSetup(t)
	lv := NewLocalView(topo, sc)
	out, init, _ := TraceDefault(tables, lv, topology.PaperNode(9), topology.PaperNode(10))
	if out != DefaultBlocked {
		t.Fatalf("outcome = %v, want blocked", out)
	}
	if init != topology.PaperNode(9) {
		t.Errorf("initiator = v%d, want v9 (adjacent to failed v10)", init+1)
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []DefaultOutcome{DefaultDelivered, DefaultSourceDown, DefaultBlocked, DefaultNoRoute, DefaultOutcome(77)} {
		if o.String() == "" {
			t.Error("outcome strings must be non-empty")
		}
	}
}

func TestLocalViewObservations(t *testing.T) {
	topo, _, sc := paperSetup(t)
	lv := NewLocalView(topo, sc)

	if !lv.NodeAlive(topology.PaperNode(6)) {
		t.Error("v6 is alive")
	}
	if lv.NodeAlive(topology.PaperNode(10)) {
		t.Error("v10 is down")
	}

	// v6 sees exactly one unreachable neighbor: across e6-11.
	un := lv.UnreachableLinks(topology.PaperNode(6))
	if len(un) != 1 || un[0] != topology.PaperLink(topo, 6, 11) {
		t.Errorf("v6 unreachable links = %v, want [e6-11]", un)
	}
	// v11 sees three unreachable neighbors: v10 (down), v6 and v4
	// (links across the area) — exactly the Fig. 1 narrative.
	un = lv.UnreachableLinks(topology.PaperNode(11))
	want := map[graph.LinkID]bool{
		topology.PaperLink(topo, 10, 11): true,
		topology.PaperLink(topo, 6, 11):  true,
		topology.PaperLink(topo, 4, 11):  true,
	}
	if len(un) != 3 {
		t.Fatalf("v11 unreachable links = %v, want 3", un)
	}
	for _, id := range un {
		if !want[id] {
			t.Errorf("unexpected unreachable link %v at v11", topo.G.Link(id))
		}
	}

	// Live neighbors of v11: v12, v15, v16.
	live := lv.LiveNeighbors(topology.PaperNode(11))
	if len(live) != 3 {
		t.Fatalf("v11 live neighbors = %d, want 3", len(live))
	}
	for _, h := range live {
		switch h.Neighbor {
		case topology.PaperNode(12), topology.PaperNode(15), topology.PaperNode(16):
		default:
			t.Errorf("unexpected live neighbor v%d", h.Neighbor+1)
		}
	}

	// NeighborUnreachable is per-endpoint: from v5, v10 is unreachable.
	if !lv.NeighborUnreachable(topology.PaperNode(5), topology.PaperLink(topo, 5, 10)) {
		t.Error("v10 must be unreachable from v5")
	}
	if lv.NeighborUnreachable(topology.PaperNode(5), topology.PaperLink(topo, 5, 12)) {
		t.Error("v12 must be reachable from v5")
	}
}

// failingScenario draws random failure disks until one fails
// something.
func failingScenario(topo *topology.Topology, rng *rand.Rand) *failure.Scenario {
	for {
		if sc := failure.RandomScenario(topo, rng); sc.HasFailures() {
			return sc
		}
	}
}

// requireTablesIdentical asserts two table sets carry bit-identical
// per-destination trees: same Dist, Parent, and ParentLink arrays.
func requireTablesIdentical(t *testing.T, as, label string, got, want *Tables) {
	t.Helper()
	n := want.topo.G.NumNodes()
	for dst := 0; dst < n; dst++ {
		g, w := got.tree(graph.NodeID(dst)), want.tree(graph.NodeID(dst))
		if g.Kind != w.Kind || g.Root != w.Root {
			t.Fatalf("%s %s: tree %d identity mismatch", as, label, dst)
		}
		for v := 0; v < n; v++ {
			if g.Dist[v] != w.Dist[v] || g.Parent[v] != w.Parent[v] || g.ParentLink[v] != w.ParentLink[v] {
				t.Fatalf("%s %s: dst %d node %d: got (dist %v, parent %d, link %d), want (%v, %d, %d)",
					as, label, dst, v,
					g.Dist[v], g.Parent[v], g.ParentLink[v],
					w.Dist[v], w.Parent[v], w.ParentLink[v])
			}
		}
	}
}

// TestRecomputeTablesMatchesColdProperty is the tables-layer version of
// the spt differential test: on every bundled topology, under random
// failure disks, every destination tree of a recomputed table must be
// node-for-node identical to a cold spt.ComputeReverse under the same
// overlay (which is all an unseeded ComputeTablesLazy does) — including
// when chained, where the second recompute seeds from tables that
// already carry a failure and have not built a single tree yet.
func TestRecomputeTablesMatchesColdProperty(t *testing.T) {
	for _, as := range topology.ASNames() {
		as := as
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			topo := topology.GenerateAS(as, 1)
			clean := ComputeTables(topo)
			rng := rand.New(rand.NewSource(int64(len(as)) + 42))
			scenarios := 0
			for scenarios < 3 {
				sc := failure.RandomScenario(topo, rng)
				if !sc.HasFailures() {
					continue
				}
				scenarios++
				inc := RecomputeTablesUnder(topo, clean, sc)
				cold := ComputeTablesLazy(topo, sc)
				requireTablesIdentical(t, as, "single", inc, cold)

				// Chain a second, independently drawn scenario on top of
				// an untouched recompute: each destination pulls its seed
				// tree through two levels on demand.
				sc2 := failure.RandomScenario(topo, rng)
				if !sc2.HasFailures() {
					continue
				}
				inc2 := RecomputeTablesUnder(topo, RecomputeTablesUnder(topo, clean, sc), sc2)
				cold2 := ComputeTablesLazy(topo, graph.Union{X: sc, Y: sc2})
				requireTablesIdentical(t, as, "chained", inc2, cold2)
			}
		})
	}
}

// TestRecomputeTablesFallsBackCold covers the guard rails: a nil or
// foreign pre must silently degrade to the cold build.
func TestRecomputeTablesFallsBackCold(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	other := topology.GenerateAS("AS209", 1)
	otherTables := ComputeTables(other)
	rng := rand.New(rand.NewSource(5))
	sc := failingScenario(topo, rng)
	cold := ComputeTablesLazy(topo, sc)
	for label, pre := range map[string]*Tables{"nil-pre": nil, "foreign-pre": otherTables} {
		got := RecomputeTablesUnder(topo, pre, sc)
		if got.seed != nil {
			t.Fatalf("%s: tables must not seed from it", label)
		}
		requireTablesIdentical(t, "AS1239", label, got, cold)
	}
}

// TestTablesUnder pins the overlay bookkeeping RecomputeTablesUnder
// relies on (and MRC's warm-start guard checks).
func TestTablesUnder(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	clean := ComputeTables(topo)
	if clean.Under() != graph.Nothing {
		t.Fatal("pre-failure tables must report the Nothing overlay")
	}
	rng := rand.New(rand.NewSource(5))
	sc := failingScenario(topo, rng)
	inc := RecomputeTablesUnder(topo, clean, sc)
	if inc.Under() != graph.Denied(sc) {
		t.Fatal("recomputed tables from clean pre must report the scenario itself")
	}
	var _ *spt.Tree = inc.DestTree(0) // DestTree stays usable on recomputed tables
}

// Built counts the destination trees t has materialized (exported for
// the external test on converged.State's tables).
func (t *Tables) Built() int {
	n := 0
	for _, tr := range t.byDst {
		if tr != nil {
			n++
		}
	}
	return n
}

// TestLazyTablesBounded: tables only ever hold the destinations that
// were asked for. Constructing or recomputing builds nothing, and one
// question about dst builds exactly dst — in the recomputed tables and
// in the seed they update from.
func TestLazyTablesBounded(t *testing.T) {
	for _, as := range topology.ASNames() {
		topo := topology.GenerateAS(as, 1)
		n := topo.G.NumNodes()
		rng := rand.New(rand.NewSource(int64(len(as)) + 3))
		sc := failingScenario(topo, rng)
		clean := ComputeTables(topo)
		post := RecomputeTablesUnder(topo, clean, sc)
		if clean.Built() != 0 || post.Built() != 0 {
			t.Fatalf("%s: %d clean and %d recomputed trees exist before any question", as, clean.Built(), post.Built())
		}
		src, dst := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		post.Dist(src, dst)
		for label, tb := range map[string]*Tables{"recomputed": post, "seed": clean} {
			if tb.Built() != 1 || tb.byDst[dst] == nil {
				t.Fatalf("%s: %s tables hold %d trees after one Dist(%d, %d), want exactly tree %d",
					as, label, tb.Built(), src, dst, dst)
			}
		}
	}

	topo := topology.GenerateAS("AS7018", 1)
	lazy := ComputeTables(topo)
	lazy.Dist(3, 9)
	lazy.Dist(4, 9)
	lazy.NextHop(1, 12)
	if lazy.Built() != 2 {
		t.Fatalf("built %d trees, want 2 (dsts 9 and 12)", lazy.Built())
	}
}

// TestLazyTablesMatchEager: which destinations are asked for, and in
// what order, never changes a tree. One chain (clean, recomputed,
// recomputed again) is pulled eagerly — every destination of every
// level, seeds first — and an identical chain lazily: only the last
// level is asked, in random order, so every seed tree is built on
// demand from inside its dependant's sync.Once. All three levels must
// come out node-for-node identical.
func TestLazyTablesMatchEager(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	n := topo.G.NumNodes()
	rng := rand.New(rand.NewSource(7))
	var scs [2]*failure.Scenario
	for i := range scs {
		scs[i] = failingScenario(topo, rng)
	}
	chain := func() [3]*Tables {
		clean := ComputeTables(topo)
		post := RecomputeTablesUnder(topo, clean, scs[0])
		return [3]*Tables{clean, post, RecomputeTablesUnder(topo, post, scs[1])}
	}

	eager := chain()
	for _, tb := range eager {
		for dst := 0; dst < n; dst++ {
			tb.DestTree(graph.NodeID(dst))
		}
	}
	lazy := chain()
	for _, dst := range rng.Perm(n) {
		lazy[2].DestTree(graph.NodeID(dst))
	}
	for i, label := range []string{"clean", "post", "chained"} {
		if lazy[i].Built() != n {
			t.Fatalf("%s: %d trees built through the chain, want %d", label, lazy[i].Built(), n)
		}
		requireTablesIdentical(t, "AS1239", label, lazy[i], eager[i])
	}
}

// TestLazyTablesConcurrent has 8 goroutines ask one recomputed table
// set for every destination, each in its own order: every goroutine
// must be handed the same tree for a destination (built once, shared
// by pointer), in the seed as well. Run under -race this is the real
// check of first-use materialization.
func TestLazyTablesConcurrent(t *testing.T) {
	topo := topology.GenerateAS("AS701", 1)
	n := topo.G.NumNodes()
	rng := rand.New(rand.NewSource(7))
	sc := failingScenario(topo, rng)
	clean := ComputeTables(topo)
	post := RecomputeTablesUnder(topo, clean, sc)

	const workers = 8
	got := make([][]*spt.Tree, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]*spt.Tree, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, dst := range rand.New(rand.NewSource(int64(w))).Perm(n) {
				got[w][dst] = post.DestTree(graph.NodeID(dst))
			}
		}()
	}
	wg.Wait()
	for dst := 0; dst < n; dst++ {
		for w := 0; w < workers; w++ {
			if got[w][dst] == nil || got[w][dst] != post.byDst[dst] {
				t.Fatalf("dst %d: goroutine %d got tree %p, tables hold %p", dst, w, got[w][dst], post.byDst[dst])
			}
		}
	}
	if clean.Built() != n {
		t.Fatalf("seed built %d trees, want %d", clean.Built(), n)
	}
	requireTablesIdentical(t, "AS701", "concurrent", post, ComputeTablesLazy(topo, sc))
}

func TestWalkAccounting(t *testing.T) {
	var w Walk
	if w.Hops() != 0 || w.Duration() != 0 || w.Nodes() != nil {
		t.Error("empty walk must be zero-valued")
	}
	w.Append(HopRecord{From: 0, To: 1, Link: 0, HeaderBytes: 4})
	w.Append(HopRecord{From: 1, To: 2, Link: 1, HeaderBytes: 8})
	if w.Hops() != 2 {
		t.Errorf("Hops = %d, want 2", w.Hops())
	}
	if w.Duration() != 2*HopDelay {
		t.Errorf("Duration = %v, want %v", w.Duration(), 2*HopDelay)
	}
	nodes := w.Nodes()
	if len(nodes) != 3 || nodes[0] != 0 || nodes[2] != 2 {
		t.Errorf("Nodes = %v", nodes)
	}
	if w.Duration() != time.Duration(w.Hops())*1800*time.Microsecond {
		t.Error("duration model must be 1.8 ms per hop")
	}
}
