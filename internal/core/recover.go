package core

import (
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
)

// Route is a source route computed by phase 2.
type Route struct {
	// Nodes is the node sequence, initiator first, destination last.
	Nodes []graph.NodeID
	// Links are the traversed links in travel order.
	Links []graph.LinkID
	// Cost is the path cost in the initiator's pruned view. By
	// Theorem 2 this equals the true post-failure shortest path cost
	// whenever the route is failure-free.
	Cost float64
}

// Hops returns the number of links on the route.
func (rt Route) Hops() int { return len(rt.Links) }

// prunedView builds the initiator's post-collection topology view:
// the pre-failure graph minus the collected failed links, minus the
// initiator's own links to unreachable neighbors, minus any failures
// seeded from the packet header. Only links are pruned — the initiator
// cannot tell failed nodes from failed links.
func (s *Session) prunedView() *graph.Mask {
	if s.pruned != nil {
		return s.pruned
	}
	m := graph.NewMask(s.r.topo.G)
	if s.collected != nil {
		for _, id := range s.collected.Header.FailedLinks {
			m.FailLink(id)
		}
	}
	for _, id := range s.lv.UnreachableLinks(s.initiator) {
		m.FailLink(id)
	}
	for _, id := range s.seeded {
		m.FailLink(id)
	}
	s.pruned = m
	return m
}

// recoveryTree returns the initiator's shortest path tree over the
// pruned view, computing it on first use via incremental
// recomputation from the cached pre-failure SPT (Narvaez-style, as the
// paper prescribes for phase 2). One tree serves every destination;
// this is the session's single shortest-path calculation.
func (s *Session) recoveryTree() *spt.Tree {
	if s.tree == nil {
		base := s.r.cleanTree(s.initiator)
		s.tree = spt.Recompute(s.r.topo.G, base, graph.Nothing, s.prunedView())
		s.spCalcs++
	}
	return s.tree
}

// Prepare finishes every lazily built piece of the session after
// collection: the pruned view and the recovery tree. After Prepare
// returns, RecoveryPathInto and ForwardSourceRouted perform no further
// session mutation, so a warmed session may serve any number of
// goroutines concurrently — the serving layer memoizes one prepared
// session per (failure entry, initiator, trigger) and shares it across
// queries. SPCalcs reports the same value as an unprepared session
// would after its first destination, so outcomes stay bit-identical.
func (s *Session) Prepare() {
	s.recoveryTree()
}

// RecoveryPath returns the shortest recovery path from the initiator
// to dst in the initiator's pruned view. ok is false when dst is
// unreachable in that view — RTR then discards packets for dst
// immediately, the paper's early-discard behavior for irrecoverable
// destinations.
func (s *Session) RecoveryPath(dst graph.NodeID) (Route, bool) {
	var rt Route
	if !s.RecoveryPathInto(&rt, dst) {
		return Route{}, false
	}
	return rt, true
}

// RecoveryPathInto is RecoveryPath writing into rt, reusing its backing
// arrays: the batched runners extract one route per destination from
// the shared session without allocating per case. On false (dst
// unreachable in the pruned view) rt is reset to an empty route but
// keeps its capacity.
func (s *Session) RecoveryPathInto(rt *Route, dst graph.NodeID) bool {
	t := s.recoveryTree()
	nodes, ok := t.AppendPathNodes(rt.Nodes[:0], dst)
	rt.Nodes = nodes
	rt.Links = rt.Links[:0]
	rt.Cost = 0
	if !ok {
		return false
	}
	rt.Links, _ = t.AppendPathLinks(rt.Links, dst)
	rt.Cost, _ = t.CostTo(dst)
	return true
}

// avoidLinks is a Denied overlay removing only the listed links (the
// candidate-generation sets are a handful of links, so a linear scan
// beats a map).
type avoidLinks []graph.LinkID

func (avoidLinks) NodeDown(graph.NodeID) bool { return false }

func (a avoidLinks) LinkDown(id graph.LinkID) bool {
	for _, x := range a {
		if x == id {
			return true
		}
	}
	return false
}

// RecoveryPathAvoidingInto computes the shortest path to dst in the
// session's pruned view with the avoid links additionally removed,
// writing into rt like RecoveryPathInto. Congestion-aware schemes use
// it to generate alternative recovery candidates around the primary
// path. Each call is one full shortest-path computation over the
// overlaid view; the caller charges it to its own SPCalcs count — the
// session is not touched, so the call is safe on a shared prepared
// session.
func (s *Session) RecoveryPathAvoidingInto(rt *Route, dst graph.NodeID, avoid []graph.LinkID) bool {
	view := graph.Union{X: s.prunedView(), Y: avoidLinks(avoid)}
	ws := spt.GetWorkspace()
	defer ws.Release()
	t := ws.Compute(s.r.topo.G, s.initiator, view)
	rt.Nodes, _ = t.AppendPathNodes(rt.Nodes[:0], dst)
	rt.Links = rt.Links[:0]
	rt.Cost = 0
	if len(rt.Nodes) == 0 {
		return false
	}
	rt.Links, _ = t.AppendPathLinks(rt.Links, dst)
	rt.Cost, _ = t.CostTo(dst)
	return true
}

// SourceRouteHeader builds the phase-2 packet header carrying rt as a
// source route.
func (s *Session) SourceRouteHeader(rt Route) routing.Header {
	return routing.Header{
		Mode:        routing.ModeSource,
		RecInit:     s.initiator,
		SourceRoute: append([]graph.NodeID(nil), rt.Nodes...),
		SourceIdx:   0,
	}
}

// ForwardResult is the outcome of source-routing a packet along a
// recovery path under the real (ground-truth) failure.
type ForwardResult struct {
	Delivered bool
	// DropAt is the node that discarded the packet when its source
	// route's next link turned out to be failed (phase 1 missed it).
	// Only meaningful when !Delivered.
	DropAt graph.NodeID
	// DropLink is the failed link that stopped the packet.
	DropLink graph.LinkID
	// Walk is the packet trajectory, with per-hop header bytes (the
	// full source route stays in the header the whole way).
	Walk routing.Walk
}

// ForwardSourceRouted simulates phase-2 forwarding of a packet along
// rt. Each node checks only local reachability, exactly like a real
// router executing a source route: if the next hop is unreachable the
// packet is discarded (the paper: "the recovery path possibly contains
// a failure. In that case, RTR simply discards the packet").
func (s *Session) ForwardSourceRouted(rt Route) ForwardResult {
	var res ForwardResult
	// The ModeSource header records exactly the source route (16 bits
	// per entry); building the actual header here would allocate a copy
	// of rt.Nodes just to take its length.
	bytes := 2 * len(rt.Nodes)
	res.Walk.Reserve(len(rt.Links))
	for i := 0; i+1 < len(rt.Nodes); i++ {
		v, w := rt.Nodes[i], rt.Nodes[i+1]
		link := rt.Links[i]
		if s.lv.NeighborUnreachable(v, link) {
			res.DropAt = v
			res.DropLink = link
			return res
		}
		res.Walk.Append(routing.HopRecord{From: v, To: w, Link: link, HeaderBytes: bytes})
	}
	res.Delivered = true
	return res
}

// Recover is the end-to-end convenience: run phase 1 (once), compute
// the recovery path for dst, and simulate phase-2 forwarding. ok is
// false when the initiator's view has no path to dst (early discard).
func (s *Session) Recover(trigger graph.LinkID, dst graph.NodeID) (Route, ForwardResult, bool, error) {
	if _, err := s.Collect(trigger); err != nil {
		return Route{}, ForwardResult{}, false, err
	}
	rt, ok := s.RecoveryPath(dst)
	if !ok {
		return Route{}, ForwardResult{}, false, nil
	}
	return rt, s.ForwardSourceRouted(rt), true, nil
}
