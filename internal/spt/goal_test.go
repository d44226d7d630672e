package spt

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/topology"
)

// opaque hides any overlay behind an interface with no dense tables,
// forcing goal queries onto the interface-dispatch settle loop.
type opaque struct{ d graph.Denied }

func (o opaque) NodeDown(v graph.NodeID) bool  { return o.d.NodeDown(v) }
func (o opaque) LinkDown(id graph.LinkID) bool { return o.d.LinkDown(id) }

// requireGoalMatchesTrees asserts that both goal orientations
// reproduce the full-tree engine bit for bit on (src, dst): same
// reachability verdict, same cost, same node sequence, same link
// sequence.
func requireGoalMatchesTrees(t *testing.T, label string, g *graph.Graph, d graph.Denied, heur Heuristic, src, dst graph.NodeID) {
	t.Helper()
	ws := GetWorkspace()
	defer ws.Release()
	var res GoalResult
	for _, kind := range []Kind{Forward, Reverse} {
		var tree *Tree
		var ok bool
		res.Nodes, res.Links = res.Nodes[:0], res.Links[:0]
		if kind == Forward {
			tree = Compute(g, src, d)
			ok = ws.ComputeGoal(&res, g, src, dst, d, heur)
		} else {
			tree = ComputeReverse(g, dst, d)
			ok = ws.ComputeGoalReverse(&res, g, src, dst, d, heur)
		}
		// Both orientations extract the same endpoint: dst in the
		// forward tree, src in the reverse tree.
		probe := dst
		if kind == Reverse {
			probe = src
		}
		wantNodes, wantOK := tree.PathNodes(probe)
		if ok != wantOK {
			t.Fatalf("%s/%v: goal ok=%v, tree ok=%v (src=%d dst=%d)", label, kind, ok, wantOK, src, dst)
		}
		if !ok {
			if len(res.Nodes) != 0 || len(res.Links) != 0 {
				t.Fatalf("%s/%v: unreachable result not truncated", label, kind)
			}
			continue
		}
		if res.Cost != tree.Dist[probe] {
			t.Fatalf("%s/%v: cost %v != tree %v (src=%d dst=%d)", label, kind, res.Cost, tree.Dist[probe], src, dst)
		}
		wantLinks, _ := tree.PathLinks(probe)
		if len(res.Nodes) != len(wantNodes) || len(res.Links) != len(wantLinks) {
			t.Fatalf("%s/%v: path shape %d/%d nodes, %d/%d links (src=%d dst=%d)",
				label, kind, len(res.Nodes), len(wantNodes), len(res.Links), len(wantLinks), src, dst)
		}
		for i := range wantNodes {
			if res.Nodes[i] != wantNodes[i] {
				t.Fatalf("%s/%v: nodes %v != %v (src=%d dst=%d)", label, kind, res.Nodes, wantNodes, src, dst)
			}
		}
		for i := range wantLinks {
			if res.Links[i] != wantLinks[i] {
				t.Fatalf("%s/%v: links %v != %v (src=%d dst=%d)", label, kind, res.Links, wantLinks, src, dst)
			}
		}
	}
}

// Differential property over the bundled topologies: on every Table II
// topology, under random failure circles, goal-directed search with
// the landmark heuristic (and without one) is bit-identical to the
// full-tree engine — the tentpole's non-negotiable.
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
				{"alt", NewALT(g, 0, nil)},
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
					requireGoalMatchesTrees(t, h.label+"/dense", g, sc, h.h, src, dst)
					requireGoalMatchesTrees(t, h.label+"/opaque", g, opaque{sc}, h.h, src, dst)
				}
			}
			// The clean graph too (zeroed-scratch dense arm).
			for _, h := range heurs {
				requireGoalMatchesTrees(t, h.label+"/clean", g, graph.Nothing, h.h, 0, graph.NodeID(n-1))
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
			{"alt", NewALT(g, 4, nil)},
		}
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		for _, h := range heurs {
			requireGoalMatchesTrees(t, h.label+"/mask", g, m, h.h, src, dst)
			requireGoalMatchesTrees(t, h.label+"/opaque", g, opaque{m}, h.h, src, dst)
			requireGoalMatchesTrees(t, h.label+"/nothing", g, graph.Nothing, h.h, src, dst)
		}
	}
}

// Property pinned by the issue: h(v) <= true distance for the landmark
// heuristic, on every bundled topology, under random denied overlays.
// The comparison is exact (no epsilon): that is precisely the contract
// the search relies on, and the heuristic's built-in slack is what
// absorbs float rounding.
func TestHeuristicAdmissibility(t *testing.T) {
	for _, name := range topology.ASNames() {
		t.Run(name, func(t *testing.T) {
			topo := topology.GenerateAS(name, 1)
			g := topo.G
			n := g.NumNodes()
			heurs := []struct {
				label string
				h     Heuristic
			}{
				{"alt", NewALT(g, 0, nil)},
			}
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
					src := graph.NodeID(rng.Intn(n))
					fwd := Compute(g, src, m)
					rev := ComputeReverse(g, src, m)
					for _, h := range heurs {
						for v := 0; v < n; v++ {
							id := graph.NodeID(v)
							if fwd.Reachable(id) && h.h.Lower(src, id) > fwd.Dist[v] {
								t.Fatalf("%s: Lower(%d,%d)=%v > dist %v", h.label, src, id, h.h.Lower(src, id), fwd.Dist[v])
							}
							if rev.Reachable(id) && h.h.Lower(id, src) > rev.Dist[v] {
								t.Fatalf("%s: Lower(%d,%d)=%v > reverse dist %v", h.label, id, src, h.h.Lower(id, src), rev.Dist[v])
							}
						}
					}
				}
			}
		})
	}
}

// Landmark selection is a pure function of the graph: rebuilding the
// same world yields the same landmark set, and the clean-tree-cache
// provider changes nothing (it feeds the same distances).
func TestALTLandmarkDeterminism(t *testing.T) {
	for _, name := range topology.ASNames() {
		topo := topology.GenerateAS(name, 1)
		a := NewALT(topo.G, 0, nil)
		want := min(DefaultLandmarks, topo.G.NumNodes())
		if len(a.Landmarks()) != want {
			t.Fatalf("%s: %d landmarks, want %d", name, len(a.Landmarks()), want)
		}
		rebuilt := topology.GenerateAS(name, 1)
		b := NewALT(rebuilt.G, 0, nil)
		cache := map[graph.NodeID]*Tree{}
		c := NewALT(topo.G, 0, func(v graph.NodeID) *Tree {
			if tr, ok := cache[v]; ok {
				return tr
			}
			tr := Compute(topo.G, v, graph.Nothing)
			cache[v] = tr
			return tr
		})
		for i, l := range a.Landmarks() {
			if b.Landmarks()[i] != l || c.Landmarks()[i] != l {
				t.Fatalf("%s: landmark sets diverge: %v / %v / %v", name, a.Landmarks(), b.Landmarks(), c.Landmarks())
			}
		}
	}
}

// Regression for the shared-scratch fix: a warm workspace alternating
// between the full-tree and goal-directed engines must run with zero
// allocations — the engines share sizing helpers, so neither resizes
// the other's scratch away.
func TestGoalWorkspaceReuseNoAllocs(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	g := topo.G
	n := g.NumNodes()
	heur := NewALT(g, 0, nil)
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
		ws.ComputeGoalReverse(&res, g, p[0], p[1], od, heur)
		ws.Compute(g, p[0], m)
	}
	for j := 0; j < len(pairs); j++ { // size every scratch buffer
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm workspace allocated %.1f per round, want 0", allocs)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
