package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestStateTablesBuildOnlyAskedDestinations: what a cache miss hands
// out. A fresh converged.State on a Table II world, a truth tree and a
// session opened, then questions about k distinct destinations: its
// post-failure tables hold exactly those k trees (repeat questions
// build nothing), and so do the pre-failure tables they seed from.
func TestStateTablesBuildOnlyAskedDestinations(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	n := topo.G.NumNodes()
	pre := routing.ComputeTables(topo)
	rtr := core.New(topo, nil)
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 4; round++ {
		sc := failure.RandomScenario(topo, rng)
		for !sc.HasFailures() {
			sc = failure.RandomScenario(topo, rng)
		}
		before := pre.Built()
		st := converged.New(topo, pre, rtr, sc)
		src := graph.NodeID(rng.Intn(n))
		st.Truth(src)
		st.Recoverable(src, graph.NodeID(rng.Intn(n)))
		post := st.Tables()
		if post.Built() != 0 || pre.Built() != before {
			t.Fatalf("round %d: %d post-failure trees exist before any destination was asked for", round, post.Built())
		}
		asked := map[graph.NodeID]bool{}
		for i := 0; i < 12; i++ {
			dst := graph.NodeID(rng.Intn(n))
			asked[dst] = true
			post.Dist(src, dst)
			st.Tables().NextHop(graph.NodeID(rng.Intn(n)), dst)
		}
		if post.Built() != len(asked) {
			t.Fatalf("round %d: %d post-failure trees for %d distinct destinations", round, post.Built(), len(asked))
		}
		if grew := pre.Built() - before; grew > len(asked) {
			t.Fatalf("round %d: %d new pre-failure trees for %d distinct destinations", round, grew, len(asked))
		}
	}
}
