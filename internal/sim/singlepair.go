package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/failure"
	"repro/internal/spt"
)

// SinglePair freezes one recoverable test case on a world so that a
// benchmark (or a latency experiment) can time a single (initiator,
// destination) recovery per operation, per protocol. The frozen case
// depends only on the world's topology and the pair seed. The
// ground-truth post-failure tree is computed once here, so per-op
// grading never pays for a truth computation.
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

// RTR runs one full RTR recovery of the frozen case: fresh session,
// collection walk, phase-2 route, forwarding, grading.
func (p *SinglePair) RTR() (RTRResult, error) { return RunRTR(p.W, p.C, p.truth) }

// FCP runs one full FCP recovery of the frozen case.
func (p *SinglePair) FCP() (FCPResult, error) { return RunFCP(p.W, p.C, p.truth) }

// MRC runs one full MRC recovery of the frozen case.
func (p *SinglePair) MRC() (MRCResult, error) { return RunMRC(p.W, p.C, p.truth) }
