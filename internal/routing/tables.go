package routing

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/spt"
	"repro/internal/topology"
)

// Tables are the converged link-state routing tables of an entire
// domain: for every destination, each router's next hop along the
// shortest path (the paper's topologies route on hop count; the
// implementation honors whatever link costs the graph carries).
//
// Tables represent the PRE-FAILURE state: during IGP convergence
// routers keep forwarding with these tables, which is exactly the
// window RTR operates in.
//
// A destination's reverse tree is built the first time that
// destination is asked for, and kept. The full table is n trees of n
// entries (tens of GB on a 10^5-node graph, and n incremental updates
// per failure on any graph), while a query, a case list or a packet
// trace reads a handful of destinations; building on first use bounds
// both time and memory by the destinations actually read. Which
// destinations were read, and in what order, never changes a tree.
type Tables struct {
	topo  *topology.Topology
	under graph.Denied // the failure overlay the tables converged on
	byDst []*spt.Tree  // reverse tree per destination; nil until first use
	once  []sync.Once  // guards byDst slot by slot

	// A recomputed table builds byDst[dst] from seed's tree via the
	// delete-only incremental update; with no seed the build is cold.
	seed  *Tables      // tables to warm-start from, or nil
	delta graph.Denied // failures new relative to seed.under
}

// ComputeTables returns the converged routing tables for topo.
func ComputeTables(topo *topology.Topology) *Tables {
	return ComputeTablesLazy(topo, graph.Nothing)
}

// ComputeTablesLazy returns the routing tables the domain converges to
// once every router has learned the failures in d — i.e. the
// post-convergence state on the surviving topology. Safe for
// concurrent use.
func ComputeTablesLazy(topo *topology.Topology, d graph.Denied) *Tables {
	n := topo.G.NumNodes()
	return &Tables{
		topo: topo, under: d,
		byDst: make([]*spt.Tree, n),
		once:  make([]sync.Once, n),
	}
}

// tree returns dst's reverse tree, building it on first use.
// Concurrent callers block on the same sync.Once, so each tree is
// built exactly once.
func (t *Tables) tree(dst graph.NodeID) *spt.Tree {
	t.once[dst].Do(func() {
		if t.seed != nil {
			t.byDst[dst] = spt.Recompute(t.topo.G, t.seed.tree(dst), t.seed.under, t.delta)
		} else {
			t.byDst[dst] = spt.ComputeReverse(t.topo.G, dst, t.under)
		}
	})
	return t.byDst[dst]
}

// RecomputeTablesUnder returns the converged tables under the combined
// failures of pre's overlay and d. A destination's tree is seeded from
// pre's tree for it (itself built on demand) and gets the delete-only
// incremental update instead of a cold Dijkstra: only the subtrees
// hanging off failed elements are rebuilt. d must only remove elements
// relative to pre's overlay (the convergence case: routers learn of
// failures, never of repairs). Every tree is bit-identical to a cold
// ComputeTablesLazy build on the combined overlay.
//
// With a nil pre, or pre built for a different topology, the trees
// are built cold.
func RecomputeTablesUnder(topo *topology.Topology, pre *Tables, d graph.Denied) *Tables {
	t := ComputeTablesLazy(topo, d)
	if pre == nil || pre.topo != topo {
		return t
	}
	if pre.under != graph.Nothing {
		t.under = graph.Union{X: pre.under, Y: d}
	}
	t.seed, t.delta = pre, d
	return t
}

// Topology returns the topology the tables were computed for.
func (t *Tables) Topology() *topology.Topology { return t.topo }

// Under returns the failure overlay the tables were computed under
// (graph.Nothing for pre-failure tables).
func (t *Tables) Under() graph.Denied { return t.under }

// NextHop returns v's default next hop and outgoing link toward dst.
// ok is false when v is the destination itself or dst is unreachable
// in the converged (pre-failure) topology.
func (t *Tables) NextHop(v, dst graph.NodeID) (nh graph.NodeID, link graph.LinkID, ok bool) {
	tree := t.tree(dst)
	p, ok := tree.NextHop(v)
	if !ok {
		return 0, 0, false
	}
	return p, graph.LinkID(tree.ParentLink[v]), true
}

// Dist returns the converged path cost from v to dst.
func (t *Tables) Dist(v, dst graph.NodeID) (float64, bool) {
	return t.tree(dst).CostTo(v)
}

// Hops returns the number of links on the converged path from v to dst.
func (t *Tables) Hops(v, dst graph.NodeID) (int, bool) {
	return t.tree(dst).Hops(v)
}

// PathNodes returns the converged routing path from v to dst, v first.
func (t *Tables) PathNodes(v, dst graph.NodeID) ([]graph.NodeID, bool) {
	return t.tree(dst).PathNodes(v)
}

// PathLinks returns the links of the converged routing path from v to
// dst in travel order.
func (t *Tables) PathLinks(v, dst graph.NodeID) ([]graph.LinkID, bool) {
	return t.tree(dst).PathLinks(v)
}

// DestTree returns the reverse shortest-path tree for dst. The tree is
// shared; callers must not modify it.
func (t *Tables) DestTree(dst graph.NodeID) *spt.Tree { return t.tree(dst) }

// PathFails reports whether the converged routing path from src to dst
// contains a failed node or link under d (the paper's definition of a
// failed routing path). The source itself is not checked; a path from
// a failed source is meaningless and handled by the caller.
func (t *Tables) PathFails(src, dst graph.NodeID, d graph.Denied) (bool, error) {
	nodes, ok := t.PathNodes(src, dst)
	if !ok {
		return false, fmt.Errorf("routing: no converged path %d -> %d", src, dst)
	}
	links, _ := t.PathLinks(src, dst)
	for _, v := range nodes[1:] {
		if d.NodeDown(v) {
			return true, nil
		}
	}
	for _, l := range links {
		if d.LinkDown(l) {
			return true, nil
		}
	}
	return false, nil
}
