package invariant

import (
	"errors"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// checkRTR checks RTR's answer to the case: phase 1 is the collection
// walk of the session the case rode, the route is extracted into the
// checker's own buffer from that same session's pruned-view tree (empty
// when there is none), and the returned phase-2 trajectory must be that
// route forwarded. A cut-off initiator rode no session and spent
// nothing.
func (k *Checker) checkRTR(c *sim.Case, r sim.RTRResult) []Violation {
	if r.Session == nil {
		return nil
	}
	col := r.Session.Collected()
	vs := k.checkCollect(c, col)
	var rt core.Route
	ok := r.Session.RecoveryPathInto(&rt, c.Dst)
	vs = append(vs, k.checkRecoveryPath(c, col, rt, ok)...)
	fwd := core.ForwardResult{Delivered: r.Recovered, DropAt: r.DropAt, DropLink: r.DropLink, Walk: r.Phase2}
	return append(vs, k.checkRTRForward(c, rt, fwd)...)
}

// checkCollectErr judges a phase-1 collection error. ErrNoLiveNeighbor
// is a legitimate outcome (fully cut-off initiator). Any other collect
// failure is a breach only on a recoverable case whose failure is one
// cluster: the phase-1 walk assumes one connected failure region, and a
// failure of several clusters legitimately falls outside that
// assumption (this package's tests tally such cases from sim.Explain).
// The clusters are counted here, on the error path only.
func (k *Checker) checkCollectErr(c *sim.Case, err error) []Violation {
	if !errors.Is(err, core.ErrNoLiveNeighbor) && c.Recoverable && len(c.Scenario.Clusters()) <= 1 {
		return []Violation{k.violation(c, "rtr/collect-failed",
			"collection failed on a recoverable case: %v", err)}
	}
	return nil
}

// checkCollect verifies the phase-1 walk against the paper's rules:
// edge-contiguity over live links starting and ending at the
// initiator, per-hop header snapshots consistent with the append-only
// fields, Rule 2 recording only real observed failures, the
// Constraint 1/2 cross_link exclusion honored at traversal time
// (modulo the documented allowIncoming and home-link amendments), and
// an exact backward retrace on truncation.
func (k *Checker) checkCollect(c *sim.Case, col *core.CollectResult) []Violation {
	var vs []Violation
	g := k.W.Topo.G
	h := &col.Header
	recs := col.Walk.Records

	if h.Mode != routing.ModeCollect || h.RecInit != c.Initiator {
		vs = append(vs, k.violation(c, "rtr/walk-header",
			"header mode=%v rec_init=%d, want collect/%d", h.Mode, h.RecInit, c.Initiator))
	}
	if len(recs) == 0 {
		vs = append(vs, k.violation(c, "rtr/walk-empty", "collection produced no hops"))
		return vs
	}

	// Edge contiguity over live links, anchored at the initiator on
	// both ends (Theorem 1: the walk is a closed cycle at the
	// initiator; truncated walks retrace home).
	if recs[0].From != c.Initiator {
		vs = append(vs, k.violation(c, "rtr/walk-contiguous",
			"walk starts at %d, not the initiator %d", recs[0].From, c.Initiator))
	}
	if col.FirstHop != recs[0].To {
		vs = append(vs, k.violation(c, "rtr/walk-firsthop",
			"FirstHop=%d but first record goes to %d", col.FirstHop, recs[0].To))
	}
	for i, rec := range recs {
		if g.Link(rec.Link).Other(rec.From) != rec.To {
			vs = append(vs, k.violation(c, "rtr/walk-contiguous",
				"hop %d: link %d does not join %d-%d", i, rec.Link, rec.From, rec.To))
		}
		if i > 0 && recs[i-1].To != rec.From {
			vs = append(vs, k.violation(c, "rtr/walk-contiguous",
				"hop %d starts at %d, previous ended at %d", i, rec.From, recs[i-1].To))
		}
		if c.LV.NeighborUnreachable(rec.From, rec.Link) {
			vs = append(vs, k.violation(c, "rtr/walk-dead-link",
				"hop %d traverses unreachable link %d from %d", i, rec.Link, rec.From))
		}
	}
	if last := recs[len(recs)-1].To; last != c.Initiator {
		vs = append(vs, k.violation(c, "rtr/walk-open",
			"walk ends at %d, not the initiator %d", last, c.Initiator))
	}

	// Per-hop header snapshots: one per hop, consistent with the
	// append-only failed_link/cross_link fields.
	if len(col.FieldSizes) != len(recs) {
		vs = append(vs, k.violation(c, "rtr/fieldsizes",
			"%d field snapshots for %d hops", len(col.FieldSizes), len(recs)))
		return vs // downstream replay needs aligned snapshots
	}
	for i, fs := range col.FieldSizes {
		if fs.Failed > len(h.FailedLinks) || fs.Cross > len(h.CrossLinks) {
			vs = append(vs, k.violation(c, "rtr/fieldsizes",
				"hop %d snapshot (%d,%d) exceeds final (%d,%d)",
				i, fs.Failed, fs.Cross, len(h.FailedLinks), len(h.CrossLinks)))
		}
		if i > 0 && (fs.Failed < col.FieldSizes[i-1].Failed || fs.Cross < col.FieldSizes[i-1].Cross) {
			vs = append(vs, k.violation(c, "rtr/fieldsizes",
				"hop %d snapshot shrank: fields are append-only", i))
		}
	}
	if fs := col.FieldSizes[len(recs)-1]; fs.Failed != len(h.FailedLinks) || fs.Cross != len(h.CrossLinks) {
		vs = append(vs, k.violation(c, "rtr/fieldsizes",
			"final snapshot (%d,%d) != header (%d,%d)",
			fs.Failed, fs.Cross, len(h.FailedLinks), len(h.CrossLinks)))
	}

	// Rule 2: every collected failed link is a real failure observed by
	// a node the walk visited (initiators record nothing themselves;
	// their own unreachable links join the pruned view directly).
	visited := make(map[graph.NodeID]bool, len(recs)+1)
	visited[c.Initiator] = true
	for _, rec := range recs {
		visited[rec.To] = true
	}
	for _, id := range h.FailedLinks {
		l := g.Link(id)
		ok := (visited[l.A] && c.LV.NeighborUnreachable(l.A, id)) ||
			(visited[l.B] && c.LV.NeighborUnreachable(l.B, id))
		if !ok {
			vs = append(vs, k.violation(c, "rtr/failed-not-observed",
				"failed_link %d (%v) was never observed unreachable by a visited node", id, l))
		}
	}

	// cross_link entries are either Constraint 1 seeds (unreachable
	// initiator links that cross something) or Constraint 2 insertions
	// (links the walk traversed).
	traversed := make(map[graph.LinkID]bool, len(recs))
	for _, rec := range recs {
		traversed[rec.Link] = true
	}
	seed := k.crossSeedCount(c)
	for i, id := range h.CrossLinks {
		if i < seed {
			if !c.LV.NeighborUnreachable(c.Initiator, id) || len(k.W.CI.Crossing(id)) == 0 {
				vs = append(vs, k.violation(c, "rtr/cross-seed",
					"cross_link seed entry %d (link %d) is not an unreachable crossing link of the initiator", i, id))
			}
		} else if !traversed[id] {
			vs = append(vs, k.violation(c, "rtr/cross-untraversed",
				"cross_link entry %d (link %d) was neither seeded nor traversed", i, id))
		}
	}

	// Truncation retrace: the walk must retrace exactly backwards to
	// the initiator, stopping at the latest mid-walk initiator pass.
	forwardHops := len(recs)
	if col.Truncated {
		f := retraceSplit(recs, c.Initiator)
		if f < 0 {
			vs = append(vs, k.violation(c, "rtr/retrace-invalid",
				"truncated walk is not an exact backward retrace to the initiator"))
		} else {
			forwardHops = f
		}
	}

	// Constraint 1/2 replay: at each forward hop, the selected link
	// must not cross any link in cross_link as of selection time —
	// unless it is incident to the initiator (home-link amendment) or
	// is the incoming link (allowIncoming amendment). Retrace hops are
	// exempt: they replay just-traversed links without a sweep.
	for i := 0; i < forwardHops; i++ {
		crossN := seed
		if i > 0 {
			crossN = col.FieldSizes[i-1].Cross
		}
		if crossN > len(h.CrossLinks) {
			continue // already reported by the snapshot checks
		}
		l := recs[i].Link
		if !k.W.CI.CrossesAny(l, h.CrossLinks[:crossN]) {
			continue
		}
		homeLink := g.Link(l).HasEndpoint(c.Initiator)
		incoming := i > 0 && l == recs[i-1].Link
		if !homeLink && !incoming {
			vs = append(vs, k.violation(c, "rtr/cross-violation",
				"hop %d traverses link %d excluded by cross_link[:%d] (not home-link, not incoming)",
				i, l, crossN))
		}
	}
	return vs
}

// crossSeedCount recomputes the initiator's Constraint 1 seed: the
// number of its unreachable links that cross at least one other link.
func (k *Checker) crossSeedCount(c *sim.Case) int {
	n := 0
	for _, id := range c.LV.UnreachableLinks(c.Initiator) {
		if len(k.W.CI.Crossing(id)) > 0 {
			n++
		}
	}
	return n
}

// retraceSplit finds the forward/retrace split f of a truncated walk:
// recs[f:] must be exactly the reversal of recs[f-m:f] (m = len-f),
// ending with the reversal of the latest forward record leaving the
// initiator — mirroring the return construction hop for hop. Returns
// -1 when no split satisfies that.
func retraceSplit(recs []routing.HopRecord, initiator graph.NodeID) int {
	n := len(recs)
	for f := (n + 1) / 2; f <= n; f++ {
		m := n - f
		if m == 0 {
			// Truncated exactly at home: nothing was appended.
			if recs[n-1].To == initiator {
				return f
			}
			continue
		}
		ok := true
		for t := 0; t < m; t++ {
			fwd, back := recs[f-1-t], recs[f+t]
			if back.From != fwd.To || back.To != fwd.From || back.Link != fwd.Link {
				ok = false
				break
			}
		}
		if !ok || recs[f-m].From != initiator {
			continue
		}
		// The retrace stops at the first reversed record leaving the
		// initiator; an earlier stop inside the retrace would mean the
		// mirrored prefix contains another initiator departure.
		stopsEarly := false
		for t := 0; t < m-1; t++ {
			if recs[f-1-t].From == initiator {
				stopsEarly = true
				break
			}
		}
		if !stopsEarly {
			return f
		}
	}
	return -1
}

// checkRecoveryPath verifies phase 2 against a fresh Dijkstra oracle
// over the initiator's pruned view (collected failed links plus the
// initiator's own unreachable links — links only, the initiator cannot
// tell failed nodes from failed links): the route is edge-contiguous
// from initiator to destination, loop-free, avoids every pruned link,
// carries a cost equal to its link costs, and is cost-optimal in that
// view; an early discard (!ok) must mean the pruned view really has no
// path.
func (k *Checker) checkRecoveryPath(c *sim.Case, col *core.CollectResult, rt core.Route, ok bool) []Violation {
	var vs []Violation
	g := k.W.Topo.G
	pruned := newLinkSet(col.Header.FailedLinks, c.LV.UnreachableLinks(c.Initiator))
	dist, oracle := k.oracle(c.Initiator, pruned)

	if !ok {
		if oracle && dist[c.Dst] < inf {
			vs = append(vs, k.violation(c, "rtr/early-discard-wrong",
				"destination discarded as unreachable, but the pruned view has a path of cost %g", dist[c.Dst]))
		}
		return vs
	}
	if len(rt.Nodes) == 0 || rt.Nodes[0] != c.Initiator || rt.Nodes[len(rt.Nodes)-1] != c.Dst {
		vs = append(vs, k.violation(c, "rtr/route-endpoints",
			"route %v does not run initiator %d -> destination %d", rt.Nodes, c.Initiator, c.Dst))
		return vs
	}
	if len(rt.Links) != len(rt.Nodes)-1 {
		vs = append(vs, k.violation(c, "rtr/route-contiguous",
			"route has %d nodes but %d links", len(rt.Nodes), len(rt.Links)))
		return vs
	}
	seen := make(map[graph.NodeID]bool, len(rt.Nodes))
	cost := 0.0
	for i, l := range rt.Links {
		u, w := rt.Nodes[i], rt.Nodes[i+1]
		if g.Link(l).Other(u) != w {
			vs = append(vs, k.violation(c, "rtr/route-contiguous",
				"route link %d does not join %d-%d", l, u, w))
		}
		if pruned[l] {
			vs = append(vs, k.violation(c, "rtr/route-uses-collected",
				"route traverses link %d, which is in the collected failure set", l))
		}
		if seen[u] {
			vs = append(vs, k.violation(c, "rtr/route-loop", "route revisits node %d", u))
		}
		seen[u] = true
		cost += g.Link(l).CostFrom(u)
	}
	if !sim.CostEqual(cost, rt.Cost) {
		vs = append(vs, k.violation(c, "rtr/route-cost",
			"route cost %g but links sum to %g", rt.Cost, cost))
	}
	if !oracle {
		return vs
	}
	if dist[c.Dst] == inf {
		vs = append(vs, k.violation(c, "rtr/route-unreachable",
			"route returned but the pruned view has no path (oracle)"))
	} else if !sim.CostEqual(rt.Cost, dist[c.Dst]) {
		vs = append(vs, k.violation(c, "rtr/route-suboptimal",
			"route cost %g, pruned-view shortest is %g", rt.Cost, dist[c.Dst]))
	}
	return vs
}

// checkRTRForward verifies phase-2 forwarding and the Theorem 2
// grading: the packet trajectory is a prefix of the route; a delivery
// is a real post-failure path (every link usable under ground truth)
// whose cost equals the true post-failure shortest path cost (Theorem
// 2: a failure-free recovery path is optimal); a drop names a link
// that really is unreachable at the dropping node.
func (k *Checker) checkRTRForward(c *sim.Case, rt core.Route, fwd core.ForwardResult) []Violation {
	var vs []Violation
	g := k.W.Topo.G
	for i, rec := range fwd.Walk.Records {
		if i >= len(rt.Links) || rt.Links[i] != rec.Link || rt.Nodes[i] != rec.From {
			vs = append(vs, k.violation(c, "rtr/forward-prefix",
				"phase-2 hop %d (%d-%d over %d) is not the route's hop", i, rec.From, rec.To, rec.Link))
			return vs
		}
	}
	if !fwd.Delivered {
		if hops := fwd.Walk.Hops(); hops < len(rt.Links) {
			if fwd.DropAt != rt.Nodes[hops] || fwd.DropLink != rt.Links[hops] {
				vs = append(vs, k.violation(c, "rtr/drop-site",
					"drop reported at %d/link %d, trajectory stops at %d/link %d",
					fwd.DropAt, fwd.DropLink, rt.Nodes[hops], rt.Links[hops]))
			} else if !c.LV.NeighborUnreachable(fwd.DropAt, fwd.DropLink) {
				vs = append(vs, k.violation(c, "rtr/drop-live-link",
					"packet dropped at %d on link %d, which is reachable", fwd.DropAt, fwd.DropLink))
			}
		}
		return vs
	}
	if fwd.Walk.Hops() != len(rt.Links) {
		vs = append(vs, k.violation(c, "rtr/forward-prefix",
			"delivered with %d hops on a %d-link route", fwd.Walk.Hops(), len(rt.Links)))
		return vs
	}
	for _, l := range rt.Links {
		if !graph.Usable(g.Link(l), c.Scenario) {
			vs = append(vs, k.violation(c, "truth/delivery-dead-link",
				"delivered trajectory traverses link %d, failed in ground truth", l))
		}
	}
	truth, oracle := k.oracle(c.Initiator, c.Scenario)
	if !oracle {
		return vs
	}
	if truth[c.Dst] == inf {
		vs = append(vs, k.violation(c, "truth/delivered-irrecoverable",
			"delivered, but ground truth has no post-failure path"))
	} else if !sim.CostEqual(rt.Cost, truth[c.Dst]) {
		vs = append(vs, k.violation(c, "rtr/theorem2",
			"failure-free recovery path costs %g, true post-failure shortest is %g", rt.Cost, truth[c.Dst]))
	}
	return vs
}
