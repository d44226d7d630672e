package sim

import (
	"slices"

	"repro/internal/core"
	"repro/internal/fcp"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
)

// RTRResult is RTR's metric record for one test case.
type RTRResult struct {
	// Recovered reports end-to-end delivery over the recovery path.
	Recovered bool
	// Optimal reports delivery over the exact post-failure shortest
	// path; by Theorem 2 it equals Recovered.
	Optimal bool
	// Stretch is recovery-path hops divided by the true post-failure
	// shortest hops (1 when recovered; 0 when not applicable).
	Stretch float64
	// SPCalcs is the number of shortest-path calculations (the paper's
	// computational-overhead metric; always 1 for RTR).
	SPCalcs int
	// Phase1 is the collection walk; Phase2 the source-routed packet
	// trajectory (empty when the destination was identified as
	// unreachable).
	Phase1, Phase2 routing.Walk
	// RouteBytes is the phase-2 source-route recording size.
	RouteBytes int
	// IdentifiedUnreachable reports that the initiator's pruned view
	// had no path to the destination, so packets were discarded
	// immediately (the paper's early-discard behavior).
	IdentifiedUnreachable bool
	// WastedHops counts the hops a phase-2 packet traveled before
	// being discarded (0 when delivered or identified unreachable).
	WastedHops int
	// NoLiveNeighbor marks a fully cut-off initiator: recovery is
	// impossible and nothing was spent.
	NoLiveNeighbor bool
	// Session is the prepared session the case rode, read-only and
	// shared by its (State, initiator, trigger); nil when NoLiveNeighbor.
	Session *core.Session
	// DropAt and DropLink: where phase 2 discarded a routed packet.
	DropAt   graph.NodeID
	DropLink graph.LinkID
}

// RunRTR executes RTR on one case, riding the session of the case's
// converged.State (World.StateOf): on a shared State, phase-1
// collection and the pruned-view shortest-path calculation run once
// per (scenario, initiator, trigger) and every destination behind them
// reuses the read-only result. truth is the ground-truth tree rooted
// at the case's initiator; nil reads it from the State when a delivery
// needs grading, so cases that never deliver never pay for one.
func RunRTR(w *World, c *Case, truth *spt.Tree) (RTRResult, error) {
	var rt core.Route
	return runRTR(w, c, &rt, truth)
}

// runRTR is RunRTR with a caller-owned route buffer (batched groups
// pass one Route across all their destinations).
func runRTR(w *World, c *Case, rt *core.Route, truth *spt.Tree) (RTRResult, error) {
	se := w.StateOf(c).Session(c.Initiator, c.Trigger)
	switch {
	case se.Err != nil:
		return RTRResult{}, se.Err
	case se.NoLive:
		return RTRResult{NoLiveNeighbor: true}, nil
	}
	return RunRTRSession(w, c, se.Sess, se.Sess.Collected(), rt, truth), nil
}

// RunRTRSession runs the per-destination tail of RTR — recovery path
// extraction from the session's single pruned-view SPT, phase-2
// source-routed forwarding, and grading — on a session whose
// collection already happened (col is its result). rt is the caller's
// route buffer: one per caller keeps a prepared session read-only and
// therefore share-safe. See RunRTR for the truth parameter.
func RunRTRSession(w *World, c *Case, sess *core.Session, col *core.CollectResult, rt *core.Route, truth *spt.Tree) RTRResult {
	res := RTRResult{Session: sess, Phase1: col.Walk}
	ok := sess.RecoveryPathInto(rt, c.Dst)
	res.SPCalcs = sess.SPCalcs()
	if !ok {
		res.IdentifiedUnreachable = true
		return res
	}
	res.RouteBytes = 2 * len(rt.Nodes)
	fwd := sess.ForwardSourceRouted(*rt)
	res.Phase2 = fwd.Walk
	if !fwd.Delivered {
		res.WastedHops = fwd.Walk.Hops()
		res.DropAt, res.DropLink = fwd.DropAt, fwd.DropLink
		return res
	}
	res.Recovered = true
	res.Optimal, res.Stretch = Grade(w, c, truth, rt.Cost)
	return res
}

// Grade is the one grading rule every scheme's delivery goes through:
// a delivery over cost is optimal, with stretch 1, when it costs the
// true post-failure shortest path (CostEqual); otherwise its stretch is
// cost over that shortest cost. A destination the ground truth cannot
// reach grades (false, 0). Link costs are at least 1, so the shortest
// cost of a reachable destination other than the initiator is
// positive. See RunRTR for the truth parameter.
func Grade(w *World, c *Case, truth *spt.Tree, cost float64) (optimal bool, stretch float64) {
	opt, reachable := TruthCost(w, c, truth)
	switch {
	case !reachable:
		return false, 0
	case CostEqual(cost, opt):
		return true, 1
	}
	return false, cost / opt
}

// CostEqual compares path costs with a relative tolerance: two trees
// can pick different equal-cost shortest paths whose float sums differ
// only in summation order. It is the one grading tolerance; every
// scheme's Optimal flag goes through it.
func CostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > scale {
		scale = b
	}
	return d <= 1e-9*(1+scale)
}

// Explanation is why RTR's answer came out as it did (Explain): the
// walk's end state, the routed packet's drop, and how the failure's
// clusters (failure.Scenario.Clusters) met the initiator's pruned view.
type Explanation struct {
	// Collect is the phase-1 result; its Enclosed, Truncated and
	// Escapes give the walk's end state.
	Collect *core.CollectResult
	// Dropped reports that phase 2 routed the packet onto DropLink, the
	// first failed link on its route; VisitedDrop that the walk visited
	// an endpoint of it.
	Dropped     bool
	DropLink    graph.LinkID
	VisitedDrop bool
	// Clusters counts the failure's clusters, Unseen those with no link
	// in the pruned view.
	Clusters, Unseen int
	// DropCluster indexes DropLink's cluster (-1 without a drop);
	// DropSeen reports that the pruned view holds a link of it.
	DropCluster int
	DropSeen    bool
}

// Explain explains the RTR answer o holds from the session it rode.
// ok is false when RTR rode none (a cut-off initiator or a failed
// collection); the Explanation then holds only the cluster count.
func Explain(o *Outcome) (e Explanation, ok bool) {
	r, clusters := &o.RTR, o.Case.Scenario.Clusters()
	e.Clusters, e.DropCluster = len(clusters), -1
	if r.Session == nil {
		return e, false
	}
	e.Collect = r.Session.Collected()
	e.Dropped = !r.Recovered && !r.IdentifiedUnreachable
	if e.Dropped {
		e.DropLink = r.DropLink
		l := o.Case.Scenario.Topo.G.Link(r.DropLink)
		for _, h := range e.Collect.Walk.Records {
			e.VisitedDrop = e.VisitedDrop || l.HasEndpoint(h.From) || l.HasEndpoint(h.To)
		}
	}
	for ci, cl := range clusters {
		seen := slices.ContainsFunc(cl, r.Session.Knows)
		if !seen {
			e.Unseen++
		}
		if e.Dropped && slices.Contains(cl, r.DropLink) {
			e.DropCluster, e.DropSeen = ci, seen
		}
	}
	return e, true
}

// FCPResult is FCP's metric record for one test case.
type FCPResult struct {
	Delivered bool
	Optimal   bool
	// Stretch is the delivered trajectory's hops divided by the true
	// post-failure shortest hops.
	Stretch float64
	SPCalcs int
	Walk    routing.Walk
	// FinalBytes is the recording size of the final header (carried
	// failures plus the last source route).
	FinalBytes int
	// WastedHops counts the hops traveled before the packet was
	// discarded (irrecoverable cases).
	WastedHops int
	// Header is the final packet header; DropAt the router that
	// discarded the packet (only when !Delivered).
	Header routing.Header
	DropAt graph.NodeID
}

// RunFCP executes FCP on one case, sharing pruned-view trees through
// the case's converged.State (FCPTrees): every case on one State reads
// a (router, carried set) tree that another already computed. A case
// without a State (see Case.State) runs without the memo, since a
// fresh State's would share nothing. See RunRTR for the truth
// parameter.
func RunFCP(w *World, c *Case, truth *spt.Tree) (FCPResult, error) {
	var res FCPResult
	var memo *fcp.Memo
	if c.State != nil {
		memo = c.State.FCPTrees()
	}
	r, err := w.FCP.RecoverWith(memo, c.LV, c.Initiator, c.Dst)
	if err != nil {
		return res, err
	}
	res.SPCalcs = r.SPCalcs
	res.Walk = r.Walk
	res.Header, res.DropAt = r.Header, r.DropAt
	res.FinalBytes = r.Header.RecordingBytes()
	if !r.Delivered {
		res.WastedHops = r.Walk.Hops()
		return res, nil
	}
	res.Delivered = true
	res.Optimal, res.Stretch = Grade(w, c, truth, walkCost(w, r.Walk))
	return res, nil
}

// MRCResult is MRC's metric record for one test case.
type MRCResult struct {
	Delivered bool
	Optimal   bool
	Stretch   float64
	// Walk is the packet trajectory under the backup configurations
	// (including dropped trajectories). Load accounting charges per-link
	// utilization from it; the serialized CaseRecord projection ignores
	// it.
	Walk routing.Walk
	// Skipped marks a case run on a world without an MRC engine
	// (scale mode); the other fields are then meaningless zeros.
	Skipped bool
	// Config is the backup configuration the packet switched to; DropAt
	// is where it died (only when !Delivered).
	Config int
	DropAt graph.NodeID
}

// RunMRC executes MRC on one case. See RunRTR for the truth parameter.
func RunMRC(w *World, c *Case, truth *spt.Tree) (MRCResult, error) {
	var res MRCResult
	if w.MRC == nil {
		res.Skipped = true
		return res, nil
	}
	r, err := w.MRC.Recover(c.LV, c.Initiator, c.Dst, c.NextHop, c.Trigger)
	if err != nil {
		return res, err
	}
	res.Walk, res.Config, res.DropAt = r.Walk, r.Config, r.DropAt
	if !r.Delivered {
		return res, nil
	}
	res.Delivered = true
	res.Optimal, res.Stretch = Grade(w, c, truth, walkCost(w, r.Walk))
	return res, nil
}

// walkCost sums the directional link costs along a packet trajectory
// (equals the hop count on hop-cost topologies).
func walkCost(w *World, walk routing.Walk) float64 {
	total := 0.0
	for _, rec := range walk.Records {
		total += w.Topo.G.Link(rec.Link).CostFrom(rec.From)
	}
	return total
}

// TruthCost returns the ground-truth post-failure shortest path cost
// from the case's initiator to its destination. A nil tree reads it
// from the case's State. It is the one truth lookup; every scheme's
// grading goes through it.
func TruthCost(w *World, c *Case, truth *spt.Tree) (float64, bool) {
	if truth == nil {
		truth = w.StateOf(c).Truth(c.Initiator)
	}
	return truth.CostTo(c.Dst)
}

// Outcome bundles the results of the schemes run on one case
// (RunCase): the paper's three in their typed fields, every other
// registered scheme in Others under its name.
type Outcome struct {
	Case *Case
	// Ran lists the schemes run, in order: a prefix of RunCase's list
	// that, when Err is set, ends with the scheme that failed.
	Ran []Scheme
	RTR RTRResult
	FCP FCPResult
	MRC MRCResult
	// Others holds the results of schemes beyond the paper's three
	// (rtr-spread, any later registration), keyed by scheme name; nil
	// when none ran.
	Others map[string]Result
	// Truth is the ground-truth post-failure shortest path tree rooted
	// at the case's initiator, shared by every case of the same
	// (scenario, initiator) pair and by every scheme's grading. It is
	// computed lazily: nil when no scheme needed grading (nothing was
	// delivered, or the case errored).
	Truth *spt.Tree
	Err   error
}

// RunAll executes the paper's three protocols on every case, in
// parallel across CPUs, preserving case order in the result slice.
// Execution is batched by (scenario, initiator, trigger) group — see
// RunAllN.
func RunAll(w *World, cases []*Case) []Outcome {
	return RunAllN(w, cases, 0)
}

// wastedTransmission applies the paper's Section IV-D metric: the
// packet size s (1000 bytes plus the recovery header bytes) times the
// hops h from the recovery initiator to the node discarding the packet.
func wastedTransmission(headerBytes, hops int) float64 {
	return float64((routing.PacketBaseBytes + headerBytes) * hops)
}
