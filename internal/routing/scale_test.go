package routing

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/topology"
)

// TestRecomputeMatchesColdAtScale is the large-graph version of
// TestRecomputeTablesMatchesColdProperty: on a 20k-node hierarchical
// synthesis, the delete-only incremental recompute must stay
// bit-identical to the cold build. Comparing every destination tree
// would cost 20k reverse Dijkstras per side, so both sides are built
// lazily and compared at a seeded destination sample — each compared
// tree is still checked node by node.
func TestRecomputeMatchesColdAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a 20k-node graph")
	}
	const nodes = 20000
	p := topology.GenParams{Name: "scale20k", Nodes: nodes, Links: 3 * nodes, Tiers: true}
	rng := rand.New(rand.NewSource(20))
	topo, err := topology.Generate(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	clean := ComputeTablesLazy(topo, graph.Nothing)

	for round := 0; round < 2; round++ {
		sc := failure.RandomScenario(topo, rng)
		for !sc.HasFailures() {
			sc = failure.RandomScenario(topo, rng)
		}
		inc := RecomputeTablesUnder(topo, clean, sc)
		cold := ComputeTablesLazy(topo, sc)

		// 8 sampled destinations plus a failed link's endpoints — the
		// trees the failure actually disturbed.
		dsts := map[graph.NodeID]bool{}
		for len(dsts) < 8 {
			dsts[graph.NodeID(rng.Intn(nodes))] = true
		}
		if fl := sc.FailedLinks(); len(fl) > 0 {
			l := topo.G.Link(fl[0])
			dsts[l.A] = true
			dsts[l.B] = true
		}
		for dst := range dsts {
			g, w := inc.tree(dst), cold.tree(dst)
			for v := 0; v < nodes; v++ {
				if g.Dist[v] != w.Dist[v] || g.Parent[v] != w.Parent[v] || g.ParentLink[v] != w.ParentLink[v] {
					t.Fatalf("round %d dst %d node %d: incremental (dist %v, parent %d, link %d) != cold (%v, %d, %d)",
						round, dst, v,
						g.Dist[v], g.Parent[v], g.ParentLink[v],
						w.Dist[v], w.Parent[v], w.ParentLink[v])
				}
			}
		}
	}
}
