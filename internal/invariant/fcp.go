package invariant

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// checkFCP checks FCP's answer to the case against its carried-failure
// contract: the trajectory is contiguous over live links, never
// traverses a link it (eventually) carries as failed, every carried
// failure was really observed by a visited router, the final source
// route is loop-free, a delivery cannot beat the true post-failure
// shortest path, and a drop happens only when the dropping router's
// pruned view genuinely has no path left.
func (k *Checker) checkFCP(c *sim.Case, res sim.FCPResult) []Violation {
	vs, _, _ := k.checkTrajectory(c, "fcp", res.Delivered, res.Walk)
	g := k.W.Topo.G

	carried := newLinkSet(res.Header.FailedLinks)
	visited := make(map[graph.NodeID]bool, len(res.Walk.Records)+1)
	visited[c.Initiator] = true
	if !res.Delivered {
		visited[res.DropAt] = true // the dropping router records too
	}
	for _, rec := range res.Walk.Records {
		visited[rec.To] = true
		if carried[rec.Link] {
			vs = append(vs, k.violation(c, "fcp/walk-failed-link",
				"trajectory traverses link %d, which the packet carries as failed", rec.Link))
		}
	}
	for _, id := range res.Header.FailedLinks {
		l := g.Link(id)
		ok := (visited[l.A] && c.LV.NeighborUnreachable(l.A, id)) ||
			(visited[l.B] && c.LV.NeighborUnreachable(l.B, id))
		if !ok {
			vs = append(vs, k.violation(c, "fcp/failed-not-observed",
				"carried failed link %d (%v) was never observed unreachable by a visited router", id, l))
		}
	}

	// The final source route must be loop-free (each recomputation is a
	// shortest path; the overall trajectory may legitimately revisit
	// nodes across recomputations, the route within one must not).
	seen := make(map[graph.NodeID]bool, len(res.Header.SourceRoute))
	for _, v := range res.Header.SourceRoute {
		if seen[v] {
			vs = append(vs, k.violation(c, "fcp/route-loop",
				"final source route revisits node %d", v))
			break
		}
		seen[v] = true
	}

	if res.Delivered {
		return vs
	}

	// Drop completeness: FCP drops only when the dropping router's
	// pruned view (pre-failure graph minus every carried failure) has no
	// path. Carried failures are all real, so this also proves the
	// destination is truly unreachable from the dropping router.
	if dist, oracle := k.oracle(res.DropAt, carried); oracle && dist[c.Dst] < inf {
		vs = append(vs, k.violation(c, "fcp/drop-premature",
			"dropped at %d, but its pruned view still has a path of cost %g", res.DropAt, dist[c.Dst]))
	}
	return vs
}
