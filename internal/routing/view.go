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
	topo *topology.Topology
	gt   graph.Denied // ground truth; never exposed directly
}

// NewLocalView wraps ground truth d into per-node observations on topo.
func NewLocalView(topo *topology.Topology, d graph.Denied) *LocalView {
	return &LocalView{topo: topo, gt: d}
}

// NodeAlive reports whether node v itself is alive. A failed router
// cannot run any protocol; the harness only invokes protocol code on
// live nodes, and protocol code may sanity-check with this.
func (lv *LocalView) NodeAlive(v graph.NodeID) bool { return !lv.gt.NodeDown(v) }

// NeighborUnreachable reports whether, observed from node v, the
// neighbor across link id is unreachable (link failed or neighbor
// failed — v cannot tell which).
func (lv *LocalView) NeighborUnreachable(v graph.NodeID, id graph.LinkID) bool {
	l := lv.topo.G.Link(id)
	return lv.gt.LinkDown(id) || lv.gt.NodeDown(l.Other(v))
}

// UnreachableLinks returns the links of v whose far ends are
// unreachable, in adjacency order.
func (lv *LocalView) UnreachableLinks(v graph.NodeID) []graph.LinkID {
	var out []graph.LinkID
	for _, h := range lv.topo.G.Adj(v) {
		if lv.NeighborUnreachable(v, h.Link) {
			out = append(out, h.Link)
		}
	}
	return out
}
