package routing

import (
	"repro/internal/graph"
	"repro/internal/topology"
)

// LocalView is the only window protocol code (RTR, FCP) has onto a
// failure: for any node, which of its neighbors are unreachable. It
// deliberately cannot say whether the neighbor or the link failed, nor
// anything about non-adjacent failures — matching the paper's failure
// model during the pre-convergence window.
type LocalView struct {
	g *graph.Graph
	// nodes[v] and links[id] are ground truth's flat tables; never
	// exposed directly.
	nodes, links []bool
}

// NewLocalView wraps ground truth d into per-node observations on topo.
// A graph.DenseTabler (failure.Scenario, graph.Mask) lends the view its
// tables, so the view follows later changes to it; any other overlay,
// graph.Nothing included, is compiled into tables of the view's own
// here, once.
func NewLocalView(topo *topology.Topology, d graph.Denied) *LocalView {
	g := topo.G
	nodes, links, ok := graph.DenseTablesOf(d)
	if !ok || nodes == nil {
		nodes, links = make([]bool, g.NumNodes()), make([]bool, g.NumLinks())
		for v := range nodes {
			nodes[v] = d.NodeDown(graph.NodeID(v))
		}
		for id := range links {
			links[id] = d.LinkDown(graph.LinkID(id))
		}
	}
	return &LocalView{g: g, nodes: nodes, links: links}
}

// NodeAlive reports whether node v itself is alive. A failed router
// cannot run any protocol; the harness only invokes protocol code on
// live nodes, and protocol code may sanity-check with this.
func (lv *LocalView) NodeAlive(v graph.NodeID) bool { return !lv.nodes[v] }

// NeighborUnreachable reports whether, observed from node v, the
// neighbor across link id is unreachable (link failed or neighbor
// failed — v cannot tell which).
func (lv *LocalView) NeighborUnreachable(v graph.NodeID, id graph.LinkID) bool {
	return lv.links[id] || lv.nodes[lv.g.Link(id).Other(v)]
}

// UnreachableLinks returns the links of v whose far ends are
// unreachable, in adjacency order.
func (lv *LocalView) UnreachableLinks(v graph.NodeID) []graph.LinkID {
	var out []graph.LinkID
	for _, h := range lv.g.Adj(v) {
		if lv.NeighborUnreachable(v, h.Link) {
			out = append(out, h.Link)
		}
	}
	return out
}
