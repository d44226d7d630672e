package sim

import (
	"errors"
	"time"

	"repro/internal/core"
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
}

// truthSource lazily supplies the ground-truth post-failure tree for
// one case. The runners only invoke it when a delivered packet needs
// grading, so cases that never deliver (or error out) never pay for a
// truth tree at all. A source may return nil; the grader then computes
// the needed cost on the spot into pooled scratch.
type truthSource func() *spt.Tree

// staticTruth adapts the exported runners' explicit tree parameter
// (possibly nil) to a truthSource.
func staticTruth(t *spt.Tree) truthSource { return func() *spt.Tree { return t } }

// RunRTR executes RTR on one case. truth is the shared ground-truth
// post-failure tree rooted at the case's initiator (nil to compute it
// on demand); RunAll computes it once per (scenario, initiator) pair
// and shares it across all three protocol runners.
func RunRTR(w *World, c *Case, truth *spt.Tree) (RTRResult, error) {
	return runRTR(w, c, staticTruth(truth))
}

// runRTR is the per-case RTR runner: it opens a fresh session and runs
// its own collection. Batched execution instead shares one session per
// (scenario, initiator, trigger) group and calls finishRTR directly.
func runRTR(w *World, c *Case, truth truthSource) (RTRResult, error) {
	var res RTRResult
	sess, err := w.RTR.NewSession(c.LV, c.Initiator)
	if err != nil {
		return res, err
	}
	col, err := sess.Collect(c.Trigger)
	if errors.Is(err, core.ErrNoLiveNeighbor) {
		res.NoLiveNeighbor = true
		return res, nil
	}
	if err != nil {
		return res, err
	}
	var rt core.Route
	finishRTR(&res, w, c, sess, col, &rt, truth)
	return res, nil
}

// finishRTR runs the per-destination tail of RTR — recovery path
// extraction from the session's single pruned-view SPT, phase-2
// source-routed forwarding, and grading — on an already-collected
// session. rt is a reusable route buffer: batched groups pass one
// Route across all their destinations.
func finishRTR(res *RTRResult, w *World, c *Case, sess *core.Session, col *core.CollectResult, rt *core.Route, truth truthSource) {
	res.Phase1 = col.Walk
	ok := sess.RecoveryPathInto(rt, c.Dst)
	res.SPCalcs = sess.SPCalcs()
	if !ok {
		res.IdentifiedUnreachable = true
		return
	}
	res.RouteBytes = 2 * len(rt.Nodes)
	fwd := sess.ForwardSourceRouted(*rt)
	res.Phase2 = fwd.Walk
	if !fwd.Delivered {
		res.WastedHops = fwd.Walk.Hops()
		return
	}
	res.Recovered = true
	opt, reachable := TruthCost(w, c, truth())
	if reachable && CostEqual(rt.Cost, opt) {
		res.Optimal = true
		res.Stretch = 1
	} else if reachable && opt > 0 {
		res.Stretch = rt.Cost / opt
	}
}

// RunRTRSession runs the per-destination tail of RTR — recovery path,
// phase-2 forwarding, grading — on a session whose collection already
// happened (col is its result). The serving layer memoizes one
// prepared session per (converged entry, initiator, trigger) and
// shares it across queries; rt is the caller's route buffer — one per
// query keeps a prepared session read-only and therefore share-safe.
// truth may be nil (cost computed into pooled scratch).
func RunRTRSession(w *World, c *Case, sess *core.Session, col *core.CollectResult, rt *core.Route, truth *spt.Tree) RTRResult {
	var res RTRResult
	finishRTR(&res, w, c, sess, col, rt, staticTruth(truth))
	return res
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
}

// RunFCP executes FCP on one case. See RunRTR for the truth parameter.
func RunFCP(w *World, c *Case, truth *spt.Tree) (FCPResult, error) {
	return runFCP(w, c, staticTruth(truth))
}

func runFCP(w *World, c *Case, truth truthSource) (FCPResult, error) {
	var res FCPResult
	r, err := w.FCP.Recover(c.LV, c.Initiator, c.Dst)
	if err != nil {
		return res, err
	}
	res.SPCalcs = r.SPCalcs
	res.Walk = r.Walk
	res.FinalBytes = r.Header.RecordingBytes()
	if !r.Delivered {
		res.WastedHops = r.Walk.Hops()
		return res, nil
	}
	res.Delivered = true
	opt, reachable := TruthCost(w, c, truth())
	cost := walkCost(w, r.Walk)
	if reachable && opt > 0 {
		res.Stretch = cost / opt
		res.Optimal = CostEqual(cost, opt)
		if res.Optimal {
			res.Stretch = 1
		}
	} else if reachable && opt == 0 {
		res.Stretch = 1
		res.Optimal = true
	}
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
}

// RunMRC executes MRC on one case. See RunRTR for the truth parameter.
func RunMRC(w *World, c *Case, truth *spt.Tree) (MRCResult, error) {
	return runMRC(w, c, staticTruth(truth))
}

func runMRC(w *World, c *Case, truth truthSource) (MRCResult, error) {
	var res MRCResult
	if w.MRC == nil {
		res.Skipped = true
		return res, nil
	}
	r, err := w.MRC.Recover(c.LV, c.Initiator, c.Dst, c.NextHop, c.Trigger)
	if err != nil {
		return res, err
	}
	res.Walk = r.Walk
	if !r.Delivered {
		return res, nil
	}
	res.Delivered = true
	opt, reachable := TruthCost(w, c, truth())
	cost := walkCost(w, r.Walk)
	if reachable && opt > 0 {
		res.Stretch = cost / opt
		res.Optimal = CostEqual(cost, opt)
		if res.Optimal {
			res.Stretch = 1
		}
	} else if reachable && opt == 0 {
		res.Stretch = 1
		res.Optimal = true
	}
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
// from the case's initiator to its destination, reading it from the
// shared truth tree when one is supplied. A nil tree makes the cost
// come from a computation into pooled workspace scratch.
func TruthCost(w *World, c *Case, truth *spt.Tree) (float64, bool) {
	if truth != nil {
		return truth.CostTo(c.Dst)
	}
	ws := spt.GetWorkspace()
	defer ws.Release()
	return ws.Compute(w.Topo.G, c.Initiator, c.Scenario).CostTo(c.Dst)
}

// Outcome bundles all three protocols' results on one case.
type Outcome struct {
	Case *Case
	RTR  RTRResult
	FCP  FCPResult
	MRC  MRCResult
	// Truth is the ground-truth post-failure shortest path tree rooted
	// at the case's initiator, shared by every case of the same
	// (scenario, initiator) pair and by all three protocol runners. It
	// is computed lazily: nil when no runner needed grading (nothing
	// was delivered, or the case errored). Consumers fall back to a
	// fresh incremental recompute from the initiator's clean tree.
	Truth *spt.Tree
	Err   error
}

// RunAll executes all protocols on every case, in parallel across
// CPUs, preserving case order in the result slice. Execution is
// batched by (scenario, initiator, trigger) group — see RunAllN.
func RunAll(w *World, cases []*Case) []Outcome {
	return RunAllN(w, cases, 0)
}

// BytesAt returns the header recording bytes in flight at time t for a
// packet whose trajectory is walk (1.8 ms per hop) and whose
// steady-state recording size after the trajectory completes is
// `steady` (the cached source route used by all subsequent packets).
func BytesAt(walk routing.Walk, steady int, t time.Duration) int {
	if t < 0 {
		return 0
	}
	hop := int(t / routing.HopDelay)
	if hop < len(walk.Records) {
		return walk.Records[hop].HeaderBytes
	}
	return steady
}

// wastedTransmission applies the paper's Section IV-D metric: the
// packet size s (1000 bytes plus the recovery header bytes) times the
// hops h from the recovery initiator to the node discarding the packet.
func wastedTransmission(headerBytes, hops int) float64 {
	return float64((routing.PacketBaseBytes + headerBytes) * hops)
}
