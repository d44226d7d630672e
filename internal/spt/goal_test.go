package spt

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/topology"
)

// opaque hides any overlay behind an interface with no dense tables,
// forcing goal queries to compile the overlay into workspace scratch.
type opaque struct{ d graph.Denied }

func (o opaque) NodeDown(v graph.NodeID) bool  { return o.d.NodeDown(v) }
func (o opaque) LinkDown(id graph.LinkID) bool { return o.d.LinkDown(id) }

// halfClean is a consistent heuristic for exercising the A* arm: half
// the clean-graph a→b distance. Deletions only lengthen paths, so it
// stays admissible under every overlay, and halving keeps the
// triangle inequality strict enough to leave the search real work.
type halfClean struct {
	g  *graph.Graph
	to map[graph.NodeID][]float64 // clean reverse distances toward b
}

func newHalfClean(g *graph.Graph) *halfClean {
	return &halfClean{g: g, to: map[graph.NodeID][]float64{}}
}

func (h *halfClean) Lower(a, b graph.NodeID) float64 {
	d, ok := h.to[b]
	if !ok {
		d = ComputeReverse(h.g, b, graph.Nothing).Dist
		h.to[b] = d
	}
	return d[a] / 2
}

// requireGoalMatchesTree asserts that the goal query reproduces the
// full-tree engine bit for bit on (src, dst): same reachability
// verdict, same cost, same node sequence, same link sequence.
func requireGoalMatchesTree(t *testing.T, label string, g *graph.Graph, d graph.Denied, heur Heuristic, src, dst graph.NodeID) {
	t.Helper()
	ws := GetWorkspace()
	defer ws.Release()
	var res GoalResult
	ok := ws.ComputeGoal(&res, g, src, dst, d, heur)
	tree := Compute(g, src, d)
	wantNodes, wantOK := tree.PathNodes(dst)
	if ok != wantOK {
		t.Fatalf("%s: goal ok=%v, tree ok=%v (src=%d dst=%d)", label, ok, wantOK, src, dst)
	}
	if !ok {
		if len(res.Nodes) != 0 || len(res.Links) != 0 {
			t.Fatalf("%s: unreachable result not truncated", label)
		}
		return
	}
	if res.Cost != tree.Dist[dst] {
		t.Fatalf("%s: cost %v != tree %v (src=%d dst=%d)", label, res.Cost, tree.Dist[dst], src, dst)
	}
	wantLinks, _ := tree.PathLinks(dst)
	if !slices.Equal(res.Nodes, wantNodes) || !slices.Equal(res.Links, wantLinks) {
		t.Fatalf("%s: path %v/%v != tree %v/%v (src=%d dst=%d)", label, res.Nodes, res.Links, wantNodes, wantLinks, src, dst)
	}
}

// Differential property over the bundled topologies: on every Table II
// topology, under random failure circles, the goal query (with and
// without a heuristic) is bit-identical to the full-tree engine.
func TestComputeGoalMatchesTreeAllTopologies(t *testing.T) {
	for _, name := range topology.ASNames() {
		t.Run(name, func(t *testing.T) {
			topo := topology.GenerateAS(name, 1)
			g := topo.G
			heurs := []struct {
				label string
				h     Heuristic
			}{
				{"none", nil},
				{"half-clean", newHalfClean(g)},
			}
			rng := rand.New(rand.NewSource(7))
			n := g.NumNodes()
			trials := 12
			if testing.Short() {
				trials = 3
			}
			for trial := 0; trial < trials; trial++ {
				sc := failure.NewScenario(topo, failure.RandomArea(rng, failure.MinRadius, failure.MaxRadius))
				src := graph.NodeID(rng.Intn(n))
				dst := graph.NodeID(rng.Intn(n))
				for _, h := range heurs {
					requireGoalMatchesTree(t, h.label+"/dense", g, sc, h.h, src, dst)
					requireGoalMatchesTree(t, h.label+"/opaque", g, opaque{sc}, h.h, src, dst)
				}
			}
			// The clean graph too (zeroed-scratch dense arm).
			for _, h := range heurs {
				requireGoalMatchesTree(t, h.label+"/clean", g, graph.Nothing, h.h, 0, graph.NodeID(n-1))
			}
		})
	}
}

// Differential property on random weighted graphs (parallel links,
// asymmetric costs, random node/link failures): the regime where
// equal-cost tie-breaks and exact-equality reconstruction have to
// reproduce Dijkstra's parent choices without unit-cost help.
func TestComputeGoalMatchesTreeRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 250
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(30)
		g := randConnectedGraph(rng, n, rng.Intn(40))
		m := graph.NewMask(g)
		for v := 0; v < n; v++ {
			if rng.Intn(6) == 0 {
				m.FailNode(graph.NodeID(v))
			}
		}
		for id := 0; id < g.NumLinks(); id++ {
			if rng.Intn(6) == 0 {
				m.FailLink(graph.LinkID(id))
			}
		}
		heurs := []struct {
			label string
			h     Heuristic
		}{
			{"none", nil},
			{"half-clean", newHalfClean(g)},
		}
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		for _, h := range heurs {
			requireGoalMatchesTree(t, h.label+"/mask", g, m, h.h, src, dst)
			requireGoalMatchesTree(t, h.label+"/opaque", g, opaque{m}, h.h, src, dst)
			requireGoalMatchesTree(t, h.label+"/nothing", g, graph.Nothing, h.h, src, dst)
		}
	}
}

// The A* differentials above are only sound under a heuristic that
// meets ComputeGoal's contract, so the test heuristic is held to it on
// every bundled topology: admissible under random denied overlays
// (exactly, no epsilon) and consistent across every link.
func TestHeuristicAdmissibility(t *testing.T) {
	for _, name := range topology.ASNames() {
		t.Run(name, func(t *testing.T) {
			topo := topology.GenerateAS(name, 1)
			g := topo.G
			n := g.NumNodes()
			h := newHalfClean(g)
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 6; trial++ {
				m := graph.NewMask(g)
				if trial > 0 { // trial 0 checks the clean graph itself
					for v := 0; v < n; v++ {
						if rng.Intn(8) == 0 {
							m.FailNode(graph.NodeID(v))
						}
					}
					for id := 0; id < g.NumLinks(); id++ {
						if rng.Intn(8) == 0 {
							m.FailLink(graph.LinkID(id))
						}
					}
				}
				for probe := 0; probe < 4; probe++ {
					dst := graph.NodeID(rng.Intn(n))
					rev := ComputeReverse(g, dst, m)
					for v := 0; v < n; v++ {
						id := graph.NodeID(v)
						if rev.Reachable(id) && h.Lower(id, dst) > rev.Dist[v] {
							t.Fatalf("Lower(%d,%d)=%v > dist %v", id, dst, h.Lower(id, dst), rev.Dist[v])
						}
					}
					for id := 0; id < g.NumLinks(); id++ {
						l := g.Link(graph.LinkID(id))
						if h.Lower(l.A, dst) > l.CostFrom(l.A)+h.Lower(l.B, dst) ||
							h.Lower(l.B, dst) > l.CostFrom(l.B)+h.Lower(l.A, dst) {
							t.Fatalf("inconsistent across link %d toward %d", id, dst)
						}
					}
				}
			}
		})
	}
}

// Regression for the shared-scratch fix: a warm workspace alternating
// between full-tree and goal queries (dense and compiled overlays)
// must run with zero allocations — both share sizing helpers, so
// neither resizes the other's scratch away.
func TestGoalWorkspaceReuseNoAllocs(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	g := topo.G
	n := g.NumNodes()
	heur := newHalfClean(g)
	m := graph.NewMask(g)
	m.FailLink(0)
	var od graph.Denied = opaque{m}

	ws := GetWorkspace()
	defer ws.Release()
	res := GoalResult{
		Nodes: make([]graph.NodeID, 0, n),
		Links: make([]graph.LinkID, 0, n),
	}
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]graph.NodeID, 32)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	i := 0
	round := func() {
		p := pairs[i%len(pairs)]
		i++
		res.Nodes, res.Links = res.Nodes[:0], res.Links[:0]
		ws.ComputeGoal(&res, g, p[0], p[1], m, heur)
		res.Nodes, res.Links = res.Nodes[:0], res.Links[:0]
		ws.ComputeGoal(&res, g, p[0], p[1], od, nil)
		ws.Compute(g, p[0], m)
	}
	for j := 0; j < len(pairs); j++ { // size every scratch buffer
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm workspace allocated %.1f per round, want 0", allocs)
	}
}
