package sim

import (
	"errors"
	"math"
	"math/rand"
	"slices"

	"repro/internal/converged"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Case is one deduplicated test case, exactly as the paper defines it:
// "a test case is determined by three factors, i.e., the recovery
// initiator, the destination, and the failure area." Failed routing
// paths sharing the same initiator and destination under the same area
// collapse into one case.
type Case struct {
	// State is the shared post-failure state the case runs on, set by
	// CaseAt: the runners take their RTR session and ground-truth tree
	// from it, so every case an owner builds on one State — a serve
	// entry's queries, a replay's flows — shares them. The enumerators
	// hand their cases out with a nil State: a case list is data a
	// caller may keep for as long as it likes, and must not pin a world
	// and every session opened on it. RunAllN gives each scenario a
	// State for the duration of the run; see World.StateOf for a runner
	// called directly on such a case. Scenario and LV are the State's
	// scenario and local view.
	State    *converged.State
	Scenario *failure.Scenario
	LV       *routing.LocalView
	// Initiator is the live router whose default next hop toward Dst
	// is unreachable.
	Initiator graph.NodeID
	Dst       graph.NodeID
	// NextHop and Trigger are the initiator's (failed) default next
	// hop toward Dst and the link to it.
	NextHop graph.NodeID
	Trigger graph.LinkID
	// Recoverable reports whether Dst is live and reachable from the
	// initiator in the post-failure topology (ground truth; the
	// protocols never see it).
	Recoverable bool
}

// Why CaseAt refuses a pair.
var (
	// ErrNoRoute: the pre-failure tables hold no src -> dst route.
	ErrNoRoute = errors.New("sim: no converged route")
	// ErrForwarded: src's converged next hop toward dst is reachable,
	// so src forwards normally and initiates no recovery.
	ErrForwarded = errors.New("sim: converged next hop is unaffected; not a recovery case")
)

// CaseAt returns the test case live router src initiates toward dst
// under st — the paper's condition: src's converged next hop toward
// dst is unreachable. It fails with ErrNoRoute or ErrForwarded when
// the pair is no such case.
func CaseAt(st *converged.State, src, dst graph.NodeID) (*Case, error) {
	c, err := caseAt(st, src, dst)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// caseAt is CaseAt by value: the rule that makes a pair a case, shared
// with the enumerator, which classifies every pair but keeps only the
// cases its quota still wants.
func caseAt(st *converged.State, src, dst graph.NodeID) (Case, error) {
	nh, link, ok := st.Pre().NextHop(src, dst)
	if !ok {
		return Case{}, ErrNoRoute
	}
	if !st.LocalView().NeighborUnreachable(src, link) {
		return Case{}, ErrForwarded
	}
	return Case{
		State:       st,
		Scenario:    st.Scenario(),
		LV:          st.LocalView(),
		Initiator:   src,
		Dst:         dst,
		NextHop:     nh,
		Trigger:     link,
		Recoverable: st.Recoverable(src, dst),
	}, nil
}

// CasesFromScenario enumerates every deduplicated test case of one
// failure scenario: all (initiator, destination) pairs where the live
// initiator's converged next hop toward the destination is
// unreachable. Every such pair corresponds to at least one failed
// routing path with a live source (the initiator itself qualifies).
func CasesFromScenario(w *World, sc *failure.Scenario) (recoverable, irrecoverable []*Case) {
	return ScaleCasesFromScenario(w, sc, nil, 0)
}

// ScaleCasesFromScenario is the case enumerator. A qualifying
// initiator is, by definition, adjacent to a failed element (its
// trigger link is failed or leads to a failed node), so candidate
// initiators come straight from the failure's adjacency — that set is
// exact, not a heuristic (the n^2 scan it replaced lives on as the
// reference in cases_test.go). Destinations are the part that can be
// sampled: dstSample of them drawn uniformly from all nodes via rng
// (every node, and no draw, when dstSample <= 0 or >= n), which at
// 10^5 nodes bounds both the pair scan and the number of reverse trees
// a lazy table world materializes. Initiators and destinations are
// visited in ascending ID order.
func ScaleCasesFromScenario(w *World, sc *failure.Scenario, rng *rand.Rand, dstSample int) (recoverable, irrecoverable []*Case) {
	return appendCases(w, sc, rng, dstSample, nil, nil, math.MaxInt, math.MaxInt)
}

// appendCases scans sc's (initiator, destination) pairs in
// ScaleCasesFromScenario's order and appends each case to rec or irr
// while that list is shorter than wantRec or wantIrr. A pair whose kind
// is full is classified but never built, and the scan stops once both
// are full. The destinations are drawn before the scan, so the rng
// ends where a full enumeration leaves it.
func appendCases(w *World, sc *failure.Scenario, rng *rand.Rand, dstSample int, rec, irr []*Case, wantRec, wantIrr int) ([]*Case, []*Case) {
	st := w.Converged(sc)
	dsts := sampleDsts(w.Topo.G.NumNodes(), dstSample, rng)
	for _, initiator := range candidateInitiators(w, sc) {
		for _, dst := range dsts {
			if len(rec) >= wantRec && len(irr) >= wantIrr {
				return rec, irr
			}
			if dst == initiator {
				continue
			}
			c, err := caseAt(st, initiator, dst)
			if err != nil {
				continue
			}
			if c.Recoverable && len(rec) < wantRec {
				rec = append(rec, kept(c))
			} else if !c.Recoverable && len(irr) < wantIrr {
				irr = append(irr, kept(c))
			}
		}
	}
	return rec, irr
}

// kept moves an enumerated case to the heap with no State: a case list
// is data; see Case.State.
func kept(c Case) *Case {
	c.State = nil
	return &c
}

// candidateInitiators returns, in ascending order, every live node
// adjacent to a failed element of sc — the exact set of nodes whose
// converged next hop toward some destination can be unreachable
// (NeighborUnreachable holds only for a failed incident link or a
// failed direct neighbor).
func candidateInitiators(w *World, sc *failure.Scenario) []graph.NodeID {
	var out []graph.NodeID
	add := func(v graph.NodeID) {
		if !sc.NodeDown(v) {
			out = append(out, v)
		}
	}
	for _, id := range sc.FailedLinks() {
		l := w.Topo.G.Link(id)
		add(l.A)
		add(l.B)
	}
	for _, v := range sc.FailedNodes() {
		for _, h := range w.Topo.G.Adj(v) {
			add(h.Neighbor)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// sampleDsts draws `want` distinct destinations uniformly from [0, n)
// and returns them ascending; want <= 0 or >= n returns every node.
// The draw sequence is a pure function of the rng stream, so sampled
// sweeps stay deterministic per shard.
func sampleDsts(n, want int, rng *rand.Rand) []graph.NodeID {
	if want <= 0 || want >= n {
		all := make([]graph.NodeID, n)
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		return all
	}
	seen := make(map[graph.NodeID]bool, want)
	out := make([]graph.NodeID, 0, want)
	for len(out) < want {
		v := graph.NodeID(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// CollectBothSampledG draws failure areas from g until both kinds
// have reached their targets, enumerating each scenario over dstSample
// sampled destinations (all of them when dstSample <= 0); cases beyond
// a kind's target are never built. It gives up after MaxCollectDraws
// scenarios and returns whatever accumulated.
func CollectBothSampledG(w *World, g failure.Generator, rng *rand.Rand, wantRec, wantIrr, dstSample int) (rec, irr []*Case) {
	for draws := 0; (len(rec) < wantRec || len(irr) < wantIrr) && draws < MaxCollectDraws; draws++ {
		rec, irr = appendCases(w, g.Generate(w.Topo, rng), rng, dstSample, rec, irr, wantRec, wantIrr)
	}
	return rec, irr
}

// MaxCollectDraws bounds how many random failure areas one collection
// call may draw. On every Table II topology a single scenario yields
// many cases, so legitimate workloads stay orders of magnitude below
// the cap; it exists so a workload that cannot be satisfied (e.g. a
// topology where no area ever produces an irrecoverable case) exhausts
// deterministically instead of spinning forever. An exhausted call
// returns the cases found so far, short of the target.
const MaxCollectDraws = 100000

// CollectBothG is CollectBothSampledG over every destination: it
// draws failure areas from g until both kinds have reached their
// targets and returns exactly that many of each — or fewer, if
// MaxCollectDraws scenarios could not produce enough. A target of 0
// asks for none of that kind, so CollectBothG(w, g, rng, n, 0) collects
// n recoverable cases only.
func CollectBothG(w *World, g failure.Generator, rng *rand.Rand, wantRec, wantIrr int) (rec, irr []*Case) {
	return CollectBothSampledG(w, g, rng, wantRec, wantIrr, 0)
}

// CountFailedPaths counts, for one scenario, the failed routing paths
// with a live source (ordered source/destination pairs whose converged
// path contains a failure) and how many of them are irrecoverable
// (destination failed or in a different partition than the source).
// This is the paper's Fig. 11 metric, which counts paths rather than
// deduplicated cases.
func CountFailedPaths(w *World, sc *failure.Scenario) (failed, irrecoverable int) {
	n := w.Topo.G.NumNodes()
	st := w.Converged(sc)
	for s := 0; s < n; s++ {
		src := graph.NodeID(s)
		if sc.NodeDown(src) {
			continue
		}
		for d := 0; d < n; d++ {
			dst := graph.NodeID(d)
			if dst == src {
				continue
			}
			bad, err := w.Tables.PathFails(src, dst, sc)
			if err != nil || !bad {
				continue
			}
			failed++
			if !st.Recoverable(src, dst) {
				irrecoverable++
			}
		}
	}
	return failed, irrecoverable
}
