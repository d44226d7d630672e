package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/spt"
)

// SinglePair freezes one recoverable test case on a world so that a
// benchmark (or a latency experiment) can time a single (initiator,
// destination) recovery per operation, per protocol. The frozen case
// depends only on the world's topology and the pair seed — never on
// the world's phase-2 engine — so worlds built under different engines
// freeze the identical case and their per-op timings compare identical
// work. The ground-truth post-failure tree is computed once here, so
// per-op grading never pays for a truth computation.
type SinglePair struct {
	W *World
	C *Case

	truth *spt.Tree
}

// NewSinglePair draws random failure areas from the pair seed until one
// yields a recoverable case and freezes that scenario's first case.
func NewSinglePair(w *World, seed int64) (*SinglePair, error) {
	rng := rand.New(rand.NewSource(seed))
	for draws := 0; draws < MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, _ := CasesFromScenario(w, sc)
		if len(rec) == 0 {
			continue
		}
		c := rec[0]
		return &SinglePair{
			W:     w,
			C:     c,
			truth: spt.Compute(w.Topo.G, c.Initiator, c.Scenario),
		}, nil
	}
	return nil, fmt.Errorf("sim: no recoverable case on %s after %d draws", w.Topo.Name, MaxCollectDraws)
}

// NewSinglePairFrom freezes an explicit (failure instance, initiator,
// destination) triple instead of drawing one at random, so a daemon
// differential test or a load generator can replay the exact query mix
// another process answers. The triple must form a genuine test case in
// the paper's sense: src is live and its converged next hop toward dst
// is unreachable under sc (see CaseAt). The frozen Case is
// field-identical to the one CasesFromScenario would enumerate for the
// same triple.
func NewSinglePairFrom(w *World, sc *failure.Scenario, src, dst graph.NodeID) (*SinglePair, error) {
	n := w.Topo.G.NumNodes()
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return nil, fmt.Errorf("sim: pair (%d, %d) out of range on %s (%d nodes)", src, dst, w.Topo.Name, n)
	}
	if src == dst {
		return nil, fmt.Errorf("sim: source and destination are both %d", src)
	}
	if sc.NodeDown(src) {
		return nil, fmt.Errorf("sim: initiator %d is inside the failure", src)
	}
	c, err := CaseAt(w.Converged(sc), src, dst)
	if err != nil {
		return nil, fmt.Errorf("%w (%d -> %d on %s)", err, src, dst, w.Topo.Name)
	}
	c.State = nil // frozen like an enumerated case: every op pays for its own session
	truth := spt.Compute(w.Topo.G, src, sc)
	return &SinglePair{W: w, C: c, truth: truth}, nil
}

// RTR runs one full RTR recovery of the frozen case: fresh session,
// collection walk, phase-2 route, forwarding, grading.
func (p *SinglePair) RTR() (RTRResult, error) { return RunRTR(p.W, p.C, p.truth) }

// FCP runs one full FCP recovery of the frozen case.
func (p *SinglePair) FCP() (FCPResult, error) { return RunFCP(p.W, p.C, p.truth) }

// MRC runs one full MRC recovery of the frozen case.
func (p *SinglePair) MRC() (MRCResult, error) { return RunMRC(p.W, p.C, p.truth) }

// SettledNodes reports how many nodes the world's phase-2 engine
// settles to answer the frozen case's (initiator, destination) route
// query over the failure scenario. The full-tree engine settles every
// reachable node; the goal-directed engines stop once the destination's
// label is exact, which is the work reduction the single-pair
// benchmarks exist to show.
func (p *SinglePair) SettledNodes() int {
	ws := spt.GetWorkspace()
	defer ws.Release()
	g := p.W.Topo.G
	if p.W.Phase2 == spt.EngineDijkstra {
		t := ws.Compute(g, p.C.Initiator, p.C.Scenario)
		settled := 0
		for _, d := range t.Dist {
			if !math.IsInf(d, 1) {
				settled++
			}
		}
		return settled
	}
	var res spt.GoalResult
	ws.ComputeGoal(&res, g, p.C.Initiator, p.C.Dst, p.C.Scenario, p.W.RTR.Heuristic())
	return res.Settled
}
