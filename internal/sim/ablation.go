package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mrc"
	seedpkg "repro/internal/seed"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ablationCaseRNG derives the workload RNG of an ablation run from its
// base seed. The derivation keeps the workload stream independent of
// the topology-synthesis stream (which consumes the base seed
// directly) without the old seed+1 offset, which collided with any
// caller that happened to pass adjacent base seeds.
func ablationCaseRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seedpkg.Derive(seed, "ablation-cases")))
}

// The ablation experiments quantify the design choices DESIGN.md calls
// out: the enclosure-verified termination versus the paper's literal
// rule, the two forwarding constraints versus the plain right-hand
// rule, MRC's configuration count, and hop-count versus weighted link
// costs.

// TerminationAblation compares phase-1 termination rules on identical
// workloads.
type TerminationAblation struct {
	AS string
	// Optimal recovery rates (percent).
	VerifiedOptimal, PaperOptimal float64
	// First-phase duration 90th percentiles (milliseconds).
	VerifiedP90Ms, PaperP90Ms float64
}

// withPaperTermination returns a copy of w whose RTR engine uses the
// paper's literal termination rule; the tables, FCP and MRC are w's.
func withPaperTermination(w *World) *World {
	paper := *w
	paper.RTR = core.New(w.Topo, w.CI, core.WithPaperTermination())
	return &paper
}

// AblateTermination runs the same recoverable workload through the
// default (enclosure-verified) world w and its paper-termination copy.
func AblateTermination(w *World, seed int64, cases int) TerminationAblation {
	measure := func(w *World) (optPct, p90 float64) {
		cs, _ := CollectBothG(w, failure.Default(), ablationCaseRNG(seed), cases, 0)
		outs := RunAll(w, cs)
		n, opt := 0, 0
		var durations []float64
		for _, o := range outs {
			if o.Err != nil || o.RTR.NoLiveNeighbor {
				continue
			}
			n++
			if o.RTR.Optimal {
				opt++
			}
			durations = append(durations, float64(o.RTR.Phase1.Duration())/float64(time.Millisecond))
		}
		if n == 0 {
			return 0, 0
		}
		c := stats.NewCDF(durations)
		return 100 * float64(opt) / float64(n), c.Quantile(0.9)
	}
	res := TerminationAblation{AS: w.Topo.Name}
	res.VerifiedOptimal, res.VerifiedP90Ms = measure(w)
	res.PaperOptimal, res.PaperP90Ms = measure(withPaperTermination(w))
	return res
}

// ConstraintCell is one cell of the 2x2 constraint/termination
// ablation: failure-collection coverage and walk length for one
// combination. Coverage is the fraction of observable failed links
// (failed links with a live endpoint in the initiator's component)
// that the walk collected, including the initiator's own.
type ConstraintCell struct {
	Coverage    float64 // percent
	AvgWalkHops float64
}

// ConstraintAblation crosses Constraints 1-2 (on/off) with the
// termination rule (enclosure-verified / paper). The paper's Fig. 4
// argument — constraints keep the walk from short-circuiting — shows
// up under the paper's termination; under the verified termination the
// walk keeps exploring either way and the unconstrained variant trades
// ~2x hops for comparable coverage.
type ConstraintAblation struct {
	AS                                   string
	VerifiedConstrained                  ConstraintCell
	VerifiedUnconstrained                ConstraintCell
	PaperConstrained, PaperUnconstrained ConstraintCell
}

// AblateConstraints measures the 2x2 of constraints x termination on
// the default world w and its paper-termination copy.
func AblateConstraints(w *World, seed int64, cases int) ConstraintAblation {
	run := func(w *World) (con, unc ConstraintCell) {
		cs, _ := CollectBothG(w, failure.Default(), ablationCaseRNG(seed), cases, 0)

		coverage := func(c *Case, collected []graph.LinkID) (have, want int) {
			known := make(map[graph.LinkID]bool, len(collected))
			for _, id := range collected {
				known[id] = true
			}
			for _, id := range c.LV.UnreachableLinks(c.Initiator) {
				known[id] = true
			}
			reach := w.Topo.G.Reachable(c.Initiator, c.Scenario)
			for _, id := range c.Scenario.FailedLinks() {
				l := w.Topo.G.Link(id)
				observable := (!c.Scenario.NodeDown(l.A) && reach[l.A]) ||
					(!c.Scenario.NodeDown(l.B) && reach[l.B])
				if !observable {
					continue
				}
				want++
				if known[id] {
					have++
				}
			}
			return have, want
		}

		var conHave, conWant, unHave, unWant, conHops, unHops, n int
		for _, c := range cs {
			se := w.StateOf(c).Session(c.Initiator, c.Trigger)
			if se.Sess == nil {
				continue
			}
			col := se.Sess.Collected()
			uncol, err := w.RTR.CollectUnconstrained(c.LV, c.Initiator, c.Trigger)
			if err != nil {
				continue
			}
			n++
			h, want := coverage(c, col.Header.FailedLinks)
			conHave += h
			conWant += want
			h, want = coverage(c, uncol.Header.FailedLinks)
			unHave += h
			unWant += want
			conHops += col.Walk.Hops()
			unHops += uncol.Walk.Hops()
		}
		if conWant > 0 {
			con.Coverage = 100 * float64(conHave) / float64(conWant)
		}
		if unWant > 0 {
			unc.Coverage = 100 * float64(unHave) / float64(unWant)
		}
		if n > 0 {
			con.AvgWalkHops = float64(conHops) / float64(n)
			unc.AvgWalkHops = float64(unHops) / float64(n)
		}
		return con, unc
	}

	res := ConstraintAblation{AS: w.Topo.Name}
	res.VerifiedConstrained, res.VerifiedUnconstrained = run(w)
	res.PaperConstrained, res.PaperUnconstrained = run(withPaperTermination(w))
	return res
}

// MRCConfigPoint is one point of the configuration-count sweep.
type MRCConfigPoint struct {
	K        int
	Recovery float64 // percent, recoverable cases
}

// AblateMRCConfigs sweeps MRC's configuration count on a fixed
// workload: more configurations isolate fewer elements each, changing
// how often a route survives an area failure.
func AblateMRCConfigs(w *World, seed int64, cases int, ks []int) ([]MRCConfigPoint, error) {
	cs, _ := CollectBothG(w, failure.Default(), ablationCaseRNG(seed), cases, 0)

	out := make([]MRCConfigPoint, 0, len(ks))
	for _, k := range ks {
		m, err := mrc.NewWarm(w.Topo, k, w.Tables)
		if err != nil {
			return nil, err
		}
		delivered, n := 0, 0
		for _, c := range cs {
			r, err := m.Recover(c.LV, c.Initiator, c.Dst, c.NextHop, c.Trigger)
			if err != nil {
				continue
			}
			n++
			if r.Delivered {
				delivered++
			}
		}
		p := MRCConfigPoint{K: m.Configs()}
		if n > 0 {
			p.Recovery = 100 * float64(delivered) / float64(n)
		}
		out = append(out, p)
	}
	return out, nil
}

// WeightedCostAblation checks that RTR's guarantees are cost-model
// independent: with random asymmetric link weights instead of hop
// count, recovered still implies optimal (Theorem 2 argues about path
// costs, not hops).
type WeightedCostAblation struct {
	AS                string
	Recovery, Optimal float64 // percent; must be equal
	FCPRecovery       float64
}

// AblateWeightedCosts rebuilds w's Table II topology with random
// per-direction link costs in [1, 10) and reruns the recoverable
// workload. It synthesizes the topology again rather than copying
// w.Topo because the weights continue the synthesis RNG stream.
func AblateWeightedCosts(w *World, seed int64, cases int) (WeightedCostAblation, error) {
	res := WeightedCostAblation{AS: w.Topo.Name}
	p, ok := topology.ParamsFor(w.Topo.Name)
	if !ok {
		return res, fmt.Errorf("sim: unknown topology %q", w.Topo.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	base, err := topology.Generate(p, rng)
	if err != nil {
		return res, err
	}
	weighted, err := reweight(base, rng)
	if err != nil {
		return res, err
	}
	ww, err := NewWorldFrom(weighted)
	if err != nil {
		return res, err
	}
	cs, _ := CollectBothG(ww, failure.Default(), ablationCaseRNG(seed), cases, 0)
	outs := RunAll(ww, cs)
	var rec, opt, fcpRec, n int
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		n++
		if o.RTR.Recovered {
			rec++
		}
		if o.RTR.Optimal {
			opt++
		}
		if o.FCP.Delivered {
			fcpRec++
		}
	}
	if n > 0 {
		res.Recovery = 100 * float64(rec) / float64(n)
		res.Optimal = 100 * float64(opt) / float64(n)
		res.FCPRecovery = 100 * float64(fcpRec) / float64(n)
	}
	return res, nil
}

// reweight clones the topology with fresh random per-direction costs.
func reweight(t *topology.Topology, rng *rand.Rand) (*topology.Topology, error) {
	g := graph.New(t.G.NumNodes())
	for _, l := range t.G.Links() {
		costAB := 1 + rng.Float64()*9
		costBA := 1 + rng.Float64()*9
		if _, err := g.AddLinkCost(l.A, l.B, costAB, costBA); err != nil {
			return nil, err
		}
	}
	coords := append([]geom.Point(nil), t.Coords...)
	return &topology.Topology{Name: t.Name + "-weighted", G: g, Coords: coords}, nil
}
