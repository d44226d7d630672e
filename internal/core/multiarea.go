package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// DeliverResult describes an end-to-end delivery attempt that may
// chain several recovery sessions (Section III-E: multiple failure
// areas).
type DeliverResult struct {
	Delivered bool
	// Initiators lists every recovery initiator invoked, in order.
	Initiators []graph.NodeID
	// TotalHops counts every link traversal: default forwarding,
	// phase-1 walks, and source-routed segments.
	TotalHops int
	// SPCalcs is the total number of shortest-path calculations across
	// all sessions.
	SPCalcs int
	// Reason describes why delivery failed, empty on success.
	Reason string
}

// maxChainedRecoveries bounds how many distinct initiators a single
// packet may trigger; each new initiator strictly grows the carried
// failure set, so the bound is defensive, not semantic.
const maxChainedRecoveries = 16

// Deliver attempts to deliver a packet from src to dst under the local
// view, chaining RTR recoveries across multiple failure areas: the
// packet first follows the converged tables; each blocked node becomes
// a recovery initiator, collects its area's failures, and re-routes
// with all failures carried in the packet header so the next initiator
// can prune them too.
func (r *RTR) Deliver(tables *routing.Tables, lv *routing.LocalView, src, dst graph.NodeID) (DeliverResult, error) {
	var res DeliverResult
	if !lv.NodeAlive(src) {
		res.Reason = "source down"
		return res, nil
	}
	// A dead dst is not checked: the source cannot know it, so the
	// attempt runs, and its effort is accounted, until recovery fails.

	// Stage 1: default forwarding until blocked.
	outcome, initiator, hops := routing.TraceDefault(tables, lv, src, dst)
	res.TotalHops += hops
	switch outcome {
	case routing.DefaultDelivered:
		res.Delivered = true
		return res, nil
	case routing.DefaultSourceDown:
		res.Reason = "source down"
		return res, nil
	case routing.DefaultNoRoute:
		res.Reason = "no converged route"
		return res, nil
	}

	// Stage 2+: chained recoveries.
	var carried []graph.LinkID // failed links accumulated in the header
	cur := initiator
	for n := 0; n < maxChainedRecoveries; n++ {
		res.Initiators = append(res.Initiators, cur)
		sess, err := r.NewSession(lv, cur)
		if err != nil {
			return res, err
		}
		sess.SeedFailedLinks(carried)

		// The trigger is this node's (failed) default next hop.
		_, trigger, ok := tables.NextHop(cur, dst)
		if !ok || !lv.NeighborUnreachable(cur, trigger) {
			// Blocked mid-source-route rather than on the default
			// path: pick any unreachable link as sweeping line.
			un := lv.UnreachableLinks(cur)
			if len(un) == 0 {
				return res, fmt.Errorf("core: node %d blocked with no unreachable neighbor", cur)
			}
			trigger = un[0]
		}
		col, err := sess.Collect(trigger)
		if err != nil {
			res.Reason = err.Error()
			return res, nil
		}
		res.TotalHops += col.Walk.Hops()

		rt, ok := sess.RecoveryPath(dst)
		res.SPCalcs += sess.SPCalcs()
		if !ok {
			res.Reason = "destination unreachable in pruned view"
			return res, nil
		}
		fwd := sess.ForwardSourceRouted(rt)
		res.TotalHops += fwd.Walk.Hops()
		if fwd.Delivered {
			res.Delivered = true
			return res, nil
		}

		// The source route hit another failure area: the dropping node
		// becomes the next initiator, carrying all failures known so
		// far (collected + seeded + the initiator's own).
		carried = append([]graph.LinkID(nil), col.Header.FailedLinks...)
		carried = append(carried, sess.seeded...)
		carried = append(carried, lv.UnreachableLinks(cur)...)
		cur = fwd.DropAt
	}
	res.Reason = "recovery chain limit exceeded"
	return res, nil
}
