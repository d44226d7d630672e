package mrc

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

func build(t *testing.T, topo *topology.Topology) *MRC {
	t.Helper()
	m, err := NewWarm(topo, 0, routing.ComputeTables(topo))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConstructionInvariants(t *testing.T) {
	for _, as := range []string{"AS209", "AS1239", "AS7018"} {
		as := as
		t.Run(as, func(t *testing.T) {
			topo := topology.GenerateAS(as, 3)
			m := build(t, topo)
			g := topo.G
			n := g.NumNodes()

			// Every node is isolated in exactly one configuration,
			// except nodes whose isolation no configuration could
			// absorb — all of which must be articulation points.
			arts := map[graph.NodeID]bool{}
			for _, a := range g.ArticulationPoints(graph.Nothing) {
				arts[a] = true
			}
			for _, u := range m.UnprotectedNodes() {
				if !arts[u] {
					t.Errorf("node %d left unisolated but is not an articulation point", u)
				}
			}
			for v := 0; v < n; v++ {
				c := m.ConfigOf(graph.NodeID(v))
				if c == Unisolated {
					continue
				}
				if c < 0 || c >= m.Configs() {
					t.Fatalf("node %d has invalid config %d", v, c)
				}
			}
			// Every configuration's backbone is connected and non-empty,
			// and every isolated node has a restricted link.
			for c := 0; c < m.Configs(); c++ {
				mask := graph.NewMask(g)
				backbone := 0
				for v := 0; v < n; v++ {
					if m.ConfigOf(graph.NodeID(v)) == c {
						mask.FailNode(graph.NodeID(v))
					} else {
						backbone++
					}
				}
				if backbone == 0 {
					t.Fatalf("config %d has an empty backbone", c)
				}
				if !g.ConnectedAll(mask) {
					t.Fatalf("config %d backbone is disconnected", c)
				}
				for v := 0; v < n; v++ {
					if m.ConfigOf(graph.NodeID(v)) != c {
						continue
					}
					restricted := false
					for _, h := range g.Adj(graph.NodeID(v)) {
						if m.ConfigOf(h.Neighbor) != c {
							restricted = true
							break
						}
					}
					if !restricted {
						t.Fatalf("node %d isolated in config %d has no restricted link", v, c)
					}
				}
			}
		})
	}
}

func TestRouteAvoidsIsolatedElements(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 3)
	m := build(t, topo)
	g := topo.G
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		c := rng.Intn(m.Configs())
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		nodes, links, ok := m.Route(c, src, dst, 0, false)
		if !ok {
			t.Fatalf("config %d must route %d -> %d (no failures present)", c, src, dst)
		}
		if nodes[0] != src || nodes[len(nodes)-1] != dst {
			t.Fatalf("route endpoints wrong: %v", nodes)
		}
		if len(links) != len(nodes)-1 {
			t.Fatalf("links/nodes mismatch: %d vs %d", len(links), len(nodes))
		}
		// Interior nodes must not be isolated in c.
		for _, v := range nodes[1 : len(nodes)-1] {
			if m.ConfigOf(v) == c {
				t.Fatalf("route %v passes through node %d isolated in config %d", nodes, v, c)
			}
		}
	}
}

func TestRouteExcludesTriggerLink(t *testing.T) {
	topo := topology.PaperExample()
	m := build(t, topo)
	v6, v11 := topology.PaperNode(6), topology.PaperNode(11)
	l, _ := topo.G.LinkBetween(v6, v11)
	c := m.ConfigOf(v6)
	nodes, links, ok := m.Route(c, v6, v11, l, true)
	if ok && len(links) > 0 && links[0] == l {
		t.Errorf("route %v must not start with the excluded link", nodes)
	}
}

func TestRecoverSingleLinkFailure(t *testing.T) {
	// MRC's home turf: single link failures are always recoverable
	// when an alternate path exists.
	topo := topology.PaperExample()
	m := build(t, topo)
	tables := routing.ComputeTables(topo)
	recovered := 0
	total := 0
	for li := 0; li < topo.G.NumLinks(); li++ {
		id := graph.LinkID(li)
		sc := failure.NewLinkSet(topo, id)
		lv := routing.NewLocalView(topo, sc)
		l := topo.G.Link(id)
		// The endpoint A recovering a path through the link.
		for _, pair := range [][2]graph.NodeID{{l.A, l.B}, {l.B, l.A}} {
			initiator, nh := pair[0], pair[1]
			// Find any destination routed via this link.
			for d := 0; d < topo.G.NumNodes(); d++ {
				dst := graph.NodeID(d)
				gotNH, gotLink, ok := tables.NextHop(initiator, dst)
				if !ok || gotLink != id || gotNH != nh {
					continue
				}
				if !topo.G.Connected(initiator, dst, sc) {
					continue
				}
				total++
				res, err := m.Recover(lv, initiator, dst, nh, id)
				if err != nil {
					t.Fatal(err)
				}
				if res.Delivered {
					recovered++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no single-link test cases found")
	}
	rate := float64(recovered) / float64(total)
	if rate < 0.95 {
		t.Errorf("MRC single-link recovery rate = %.2f (%d/%d); should be near-perfect", rate, recovered, total)
	}
}

func TestRecoverAreaFailuresOftenFail(t *testing.T) {
	// The paper's point: under area failures MRC's recovery rate
	// collapses because routes and their backup configurations fail
	// together. Expect substantially imperfect recovery.
	topo := topology.GenerateAS("AS209", 3)
	m := build(t, topo)
	tables := routing.ComputeTables(topo)
	rng := rand.New(rand.NewSource(8))
	n := topo.G.NumNodes()
	recovered, total := 0, 0
	for total < 300 {
		sc := failure.RandomScenario(topo, rng)
		lv := routing.NewLocalView(topo, sc)
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		outcome, initiator, _ := routing.TraceDefault(tables, lv, src, dst)
		if outcome != routing.DefaultBlocked || !topo.G.Connected(initiator, dst, sc) {
			continue
		}
		total++
		nh, trigger, _ := tables.NextHop(initiator, dst)
		res, err := m.Recover(lv, initiator, dst, nh, trigger)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			recovered++
			// Delivered packets must have used live links only.
			for _, rec := range res.Walk.Records {
				if sc.LinkDown(rec.Link) {
					t.Fatal("MRC traversed a failed link")
				}
			}
		}
	}
	rate := float64(recovered) / float64(total)
	t.Logf("MRC area-failure recovery rate: %.1f%% (%d/%d)", 100*rate, recovered, total)
	if rate > 0.9 {
		t.Errorf("MRC recovery rate %.2f unexpectedly high under area failures", rate)
	}
	if rate == 0 {
		t.Error("MRC must recover at least some cases")
	}
}

func TestRecoverInitiatorDown(t *testing.T) {
	topo := topology.PaperExample()
	m := build(t, topo)
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	lv := routing.NewLocalView(topo, sc)
	_, err := m.Recover(lv, topology.PaperNode(10), topology.PaperNode(1), topology.PaperNode(5), 0)
	if err == nil {
		t.Error("recovery at a failed node must error")
	}
}

func TestRouteSelfDelivery(t *testing.T) {
	topo := topology.PaperExample()
	m := build(t, topo)
	nodes, links, ok := m.Route(0, 3, 3, 0, false)
	if !ok || len(nodes) != 1 || len(links) != 0 {
		t.Errorf("self route = %v/%v/%v", nodes, links, ok)
	}
}

// coldTrees builds m's configuration tree matrix the cold way: one
// full reverse Dijkstra per (configuration, destination) under the
// configuration's view.
func coldTrees(m *MRC) [][]*spt.Tree {
	n := m.topo.G.NumNodes()
	trees := make([][]*spt.Tree, m.k)
	for c := range trees {
		trees[c] = make([]*spt.Tree, n)
		for d := range trees[c] {
			trees[c][d] = spt.ComputeReverse(m.topo.G, graph.NodeID(d), cfgDenied{m: m, c: c, dst: graph.NodeID(d)})
		}
	}
	return trees
}

// requireSameTrees asserts m carries the bit-identical configuration
// tree matrix want.
func requireSameTrees(t *testing.T, as string, m *MRC, want [][]*spt.Tree) {
	t.Helper()
	if m.k != len(want) {
		t.Fatalf("%s: config counts differ: %d vs %d", as, m.k, len(want))
	}
	n := m.topo.G.NumNodes()
	for c := 0; c < m.k; c++ {
		for d := 0; d < n; d++ {
			g, w := m.trees[c][d], want[c][d]
			if g.Kind != w.Kind || g.Root != w.Root {
				t.Fatalf("%s: tree (%d, %d) identity mismatch", as, c, d)
			}
			for v := 0; v < n; v++ {
				if g.Dist[v] != w.Dist[v] || g.Parent[v] != w.Parent[v] || g.ParentLink[v] != w.ParentLink[v] {
					t.Fatalf("%s: config %d dst %d node %d: warm (dist %v, parent %d, link %d), cold (%v, %d, %d)",
						as, c, d, v,
						g.Dist[v], g.Parent[v], g.ParentLink[v],
						w.Dist[v], w.Parent[v], w.ParentLink[v])
				}
			}
		}
	}
}

// TestNewWarmMatchesCold verifies the warm-started tree matrix is
// bit-identical to the cold build on every bundled topology — the
// isolation overlay is delete-only relative to the clean graph, so the
// incremental recompute must reproduce the cold trees exactly.
func TestNewWarmMatchesCold(t *testing.T) {
	for _, as := range topology.ASNames() {
		as := as
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			warm := build(t, topology.GenerateAS(as, 3))
			requireSameTrees(t, as, warm, coldTrees(warm))
		})
	}
}

// TestNewWarmRejectsUnusableTables covers the guard rails: nil tables,
// tables of a foreign topology, and tables computed under failures are
// each an error.
func TestNewWarmRejectsUnusableTables(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 3)
	other := topology.GenerateAS("AS209", 3)

	rng := rand.New(rand.NewSource(9))
	sc := failure.RandomScenario(topo, rng)
	for !sc.HasFailures() {
		sc = failure.RandomScenario(topo, rng)
	}
	failedTables := routing.ComputeTablesLazy(topo, sc)

	for _, tc := range []struct {
		label  string
		tables *routing.Tables
	}{
		{"nil", nil},
		{"foreign", routing.ComputeTables(other)},
		{"under-failures", failedTables},
	} {
		if m, err := NewWarm(topo, 0, tc.tables); err == nil {
			t.Errorf("%s: built %d configurations from unusable tables, want an error", tc.label, m.Configs())
		}
	}
}

// TestNewWarmPhase2OnlyDijkstra pins the single-engine form kept for
// the benchmark harness: EngineDijkstra builds the warm MRC, any other
// engine value is an error.
func TestNewWarmPhase2OnlyDijkstra(t *testing.T) {
	topo := topology.PaperExample()
	if _, err := NewWarmPhase2(topo, 0, routing.ComputeTables(topo), spt.EngineDijkstra, nil); err != nil {
		t.Fatalf("EngineDijkstra: %v", err)
	}
	if _, err := NewWarmPhase2(topo, 0, nil, spt.EngineDijkstra+1, nil); err == nil {
		t.Fatal("a second engine must be rejected")
	}
}

// UnprotectedNodes returns the nodes MRC cannot protect: those no
// configuration isolates. They are (a subset of) the topology's
// articulation points — single points of failure that partition the
// network, against which no recovery scheme helps.
func (m *MRC) UnprotectedNodes() []graph.NodeID {
	var out []graph.NodeID
	for v, c := range m.isolCfg {
		if c == Unisolated {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
