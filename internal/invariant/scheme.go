package invariant

import (
	"repro/internal/routing"
	"repro/internal/sim"
)

// checkResult checks the contract every scheme's Result keeps, whatever
// its mechanics: the data walks form one trajectory (checkTrajectory),
// and the grade is consistent — no grade without a delivery, a stretch
// of at least 1, and Optimal only at stretch 1 on a path as short as
// the true one.
func (k *Checker) checkResult(c *sim.Case, scheme string, r sim.Result) []Violation {
	vs, cost, truth := k.checkTrajectory(c, "scheme", r.Delivered, r.Walks...)
	switch {
	case !r.Delivered:
		if r.Optimal || r.Stretch != 0 {
			vs = append(vs, k.violation(c, "scheme/grade-undelivered",
				"not delivered, yet graded optimal=%v stretch=%g", r.Optimal, r.Stretch))
		}
	case (r.Stretch != 0 && r.Stretch < 1-1e-9) || (r.Optimal && r.Stretch != 1):
		vs = append(vs, k.violation(c, "scheme/grade-stretch", "optimal=%v with stretch %g", r.Optimal, r.Stretch))
	}
	if r.Optimal && truth > 0 && !sim.CostEqual(cost, truth) {
		vs = append(vs, k.violation(c, "scheme/grade-optimal",
			"graded optimal over cost %g, the true post-failure shortest is %g", cost, truth))
	}
	for i := range vs {
		vs[i].Detail = scheme + ": " + vs[i].Detail
	}
	return vs
}

// checkTrajectory checks the data trajectory every scheme's delivery
// keeps: the walks chain into one path from the initiator, each hop
// over a link live at its tail (<prefix>/walk-contiguous,
// <prefix>/walk-dead-link); a delivery ends at the destination
// (<prefix>/delivery-wrong-dst) and cannot beat the true post-failure
// shortest path (truth/delivered-irrecoverable,
// truth/delivery-beats-shortest). It returns the trajectory's cost and,
// for a delivery that passed every check against the oracle, the true
// shortest cost for the caller's grade checks — 0 when there is none
// to grade against (link costs are at least 1).
func (k *Checker) checkTrajectory(c *sim.Case, prefix string, delivered bool, walks ...routing.Walk) (vs []Violation, cost, truth float64) {
	g := k.W.Topo.G
	at := c.Initiator
	for wi, walk := range walks {
		for i, rec := range walk.Records {
			if l := g.Link(rec.Link); rec.From != at || !l.HasEndpoint(rec.From) || l.Other(rec.From) != rec.To {
				vs = append(vs, k.violation(c, prefix+"/walk-contiguous",
					"walk %d hop %d (%d-%d over link %d) does not continue from %d",
					wi, i, rec.From, rec.To, rec.Link, at))
			}
			if c.LV.NeighborUnreachable(rec.From, rec.Link) {
				vs = append(vs, k.violation(c, prefix+"/walk-dead-link",
					"walk %d hop %d traverses unreachable link %d from %d", wi, i, rec.Link, rec.From))
			}
			at = rec.To
			cost += g.Link(rec.Link).CostFrom(rec.From)
		}
	}
	if !delivered {
		return vs, cost, 0
	}
	if at != c.Dst {
		vs = append(vs, k.violation(c, prefix+"/delivery-wrong-dst",
			"delivered, but the trajectory ends at %d, not destination %d", at, c.Dst))
		return vs, cost, 0
	}
	dist, oracle := k.oracle(c.Initiator, c.Scenario)
	switch {
	case !oracle:
	case dist[c.Dst] == inf:
		vs = append(vs, k.violation(c, "truth/delivered-irrecoverable",
			"delivered, but ground truth has no post-failure path"))
	case cost < dist[c.Dst] && !sim.CostEqual(cost, dist[c.Dst]):
		vs = append(vs, k.violation(c, "truth/delivery-beats-shortest",
			"delivered over cost %g, below the true post-failure shortest %g", cost, dist[c.Dst]))
	default:
		truth = dist[c.Dst]
	}
	return vs, cost, truth
}
