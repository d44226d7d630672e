package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

func TestPaperRecoveryPath(t *testing.T) {
	topo, _, _, sess, trigger := paperWorld(t)
	if _, err := sess.Collect(trigger); err != nil {
		t.Fatal(err)
	}
	rt, ok := sess.RecoveryPath(topology.PaperNode(17))
	if !ok {
		t.Fatal("v17 must be recoverable from v6")
	}
	// The post-failure shortest path v6 -> v17 has 5 hops (e.g.
	// v6 v5 v12 v16 v15 v17); all 3- and 4-hop routes use failed links.
	if rt.Hops() != 5 {
		t.Errorf("recovery path %v has %d hops, want 5", rt.Nodes, rt.Hops())
	}
	if rt.Nodes[0] != topology.PaperNode(6) || rt.Nodes[len(rt.Nodes)-1] != topology.PaperNode(17) {
		t.Errorf("route endpoints wrong: %v", rt.Nodes)
	}

	// Theorem 2 on this instance: the length equals the true
	// post-failure shortest path length.
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	truth := spt.Compute(topo.G, topology.PaperNode(6), sc)
	want, reachable := truth.CostTo(topology.PaperNode(17))
	if !reachable || rt.Cost != want {
		t.Errorf("route cost = %v, ground-truth optimum = %v", rt.Cost, want)
	}

	// And forwarding it under the real failure delivers.
	fwd := sess.ForwardSourceRouted(rt)
	if !fwd.Delivered {
		t.Errorf("source-routed packet dropped at v%d", fwd.DropAt+1)
	}
	if fwd.Walk.Hops() != rt.Hops() {
		t.Errorf("walk hops = %d, want %d", fwd.Walk.Hops(), rt.Hops())
	}
	// Phase-2 packets carry the whole source route: 2 bytes per node.
	wantBytes := 2 * len(rt.Nodes)
	for _, rec := range fwd.Walk.Records {
		if rec.HeaderBytes != wantBytes {
			t.Errorf("phase-2 header bytes = %d, want %d", rec.HeaderBytes, wantBytes)
		}
	}
}

func TestSPCalcsOncePerSession(t *testing.T) {
	_, _, _, sess, trigger := paperWorld(t)
	if _, err := sess.Collect(trigger); err != nil {
		t.Fatal(err)
	}
	if sess.SPCalcs() != 0 {
		t.Error("collection alone must not compute shortest paths")
	}
	// Many destinations, one calculation: the recomputed tree is shared.
	for _, dst := range []int{17, 15, 16, 18, 13, 1} {
		if _, ok := sess.RecoveryPath(topology.PaperNode(dst)); !ok {
			t.Errorf("v%d must be recoverable from v6", dst)
		}
	}
	if sess.SPCalcs() != 1 {
		t.Errorf("SPCalcs = %d, want 1 (cached across destinations)", sess.SPCalcs())
	}
}

func TestRecoveryPathUnreachableDestination(t *testing.T) {
	// v10 is inside the failure area: no recovery path must exist, and
	// RTR identifies that with its single SP calculation.
	_, _, _, sess, trigger := paperWorld(t)
	if _, err := sess.Collect(trigger); err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.RecoveryPath(topology.PaperNode(10)); ok {
		t.Error("v10 failed; it must be unrecoverable")
	}
	if sess.SPCalcs() != 1 {
		t.Errorf("SPCalcs = %d, want 1 even for irrecoverable destinations", sess.SPCalcs())
	}
}

// SourceRouteHeader builds the phase-2 packet header carrying rt as a
// source route.
func (s *Session) SourceRouteHeader(rt Route) routing.Header {
	return routing.Header{
		Mode:        routing.ModeSource,
		RecInit:     s.initiator,
		SourceRoute: append([]graph.NodeID(nil), rt.Nodes...),
		SourceIdx:   0,
	}
}

func TestSourceRouteHeader(t *testing.T) {
	_, _, _, sess, trigger := paperWorld(t)
	if _, err := sess.Collect(trigger); err != nil {
		t.Fatal(err)
	}
	rt, ok := sess.RecoveryPath(topology.PaperNode(17))
	if !ok {
		t.Fatal("need a route")
	}
	h := sess.SourceRouteHeader(rt)
	if h.Mode != routing.ModeSource {
		t.Errorf("mode = %v, want source", h.Mode)
	}
	if h.RecInit != sess.initiator {
		t.Error("rec_init must be the initiator")
	}
	if len(h.SourceRoute) != len(rt.Nodes) || h.SourceIdx != 0 {
		t.Errorf("source route = %v idx %d", h.SourceRoute, h.SourceIdx)
	}
	// The header must fit the wire format (routing's
	// TestSourceRouteHeaderRoundTrip round-trips one of this shape).
	if !fitsWire(h) {
		t.Errorf("header does not fit the 16-bit wire fields: %+v", h)
	}
}

// recoverPath is the end-to-end convenience: run phase 1 (once per
// session), compute the recovery path for dst, and simulate phase-2
// forwarding. ok is false when the initiator's view has no path to dst
// (early discard).
func recoverPath(s *Session, trigger graph.LinkID, dst graph.NodeID) (Route, ForwardResult, bool, error) {
	if _, err := s.Collect(trigger); err != nil {
		return Route{}, ForwardResult{}, false, err
	}
	rt, ok := s.RecoveryPath(dst)
	if !ok {
		return Route{}, ForwardResult{}, false, nil
	}
	return rt, s.ForwardSourceRouted(rt), true, nil
}

// TestTheorem3SingleLinkFailures: under ANY single link failure, every
// failed routing path with a reachable destination is recovered with
// the exact shortest recovery path. Exhaustive over every link and
// every (initiator, destination) pair whose next hop the link cut, on
// the fixture and on the AS1239 analogue; the counts pin how many
// failed paths each sweep checks and how many of them a bridge (or a
// leaf's only link) cut off from every scheme.
func TestTheorem3SingleLinkFailures(t *testing.T) {
	for _, in := range []struct {
		topo                *topology.Topology
		failed, partitioned int
	}{
		{topology.PaperExample(), 306, 0},
		{topology.GenerateAS("AS1239", 1), 2652, 988},
	} {
		topo := in.topo
		r := New(topo, nil)
		tables := routing.ComputeTables(topo)
		n := topo.G.NumNodes()
		failed, partitioned := 0, 0
		for li := 0; li < topo.G.NumLinks(); li++ {
			linkID := graph.LinkID(li)
			sc := failure.NewLinkSet(topo, linkID)
			lv := routing.NewLocalView(topo, sc)
			for i := 0; i < n; i++ {
				initiator := graph.NodeID(i)
				var sess *Session
				var truth *spt.Tree
				for d := 0; d < n; d++ {
					dst := graph.NodeID(d)
					if dst == initiator {
						continue
					}
					_, trigger, ok := tables.NextHop(initiator, dst)
					if !ok || !lv.NeighborUnreachable(initiator, trigger) {
						continue // path unaffected by this failure
					}
					failed++
					if sess == nil {
						var err error
						if sess, err = r.NewSession(lv, initiator); err != nil {
							t.Fatal(err)
						}
						truth = spt.Compute(topo.G, initiator, sc)
					}
					rt, fwd, ok, err := recoverPath(sess, trigger, dst)
					if err != nil && !errors.Is(err, ErrNoLiveNeighbor) {
						t.Fatalf("%s link %v, %d->%d: %v", topo.Name, topo.G.Link(linkID), initiator, dst, err)
					}
					optCost, reachable := truth.CostTo(dst)
					if !reachable {
						if ok {
							t.Fatalf("%s link %v: RTR claims recovery to unreachable %d", topo.Name, topo.G.Link(linkID), dst)
						}
						partitioned++
						continue
					}
					if !ok {
						t.Fatalf("%s link %v, initiator %d, dst %d: Theorem 3 violated — no recovery", topo.Name, topo.G.Link(linkID), initiator, dst)
					}
					if !fwd.Delivered {
						t.Fatalf("%s link %v: recovery path contains a failure under single link failure", topo.Name, topo.G.Link(linkID))
					}
					if rt.Cost != optCost {
						t.Fatalf("%s link %v, initiator %d, dst %d: cost %v, optimal %v", topo.Name, topo.G.Link(linkID), initiator, dst, rt.Cost, optCost)
					}
				}
			}
		}
		if failed != in.failed || partitioned != in.partitioned {
			t.Errorf("%s: %d failed paths, %d partitioned; want %d and %d",
				topo.Name, failed, partitioned, in.failed, in.partitioned)
		}
	}
}

// TestTheorem1And2Random: over many random area failures on generated
// ISP topologies — (1) phase 1 always terminates (no budget
// exhaustion), (2) collected failures are a subset of true failures,
// (3) whenever the source-routed packet is delivered, the path cost
// equals the true post-failure optimum.
func TestTheorem1And2Random(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for _, as := range []string{"AS1239", "AS209", "AS3549"} {
		topo := topology.GenerateAS(as, 77)
		r := New(topo, nil)
		tables := routing.ComputeTables(topo)
		n := topo.G.NumNodes()

		cases := 0
		for cases < 60 {
			sc := failure.RandomScenario(topo, rng)
			if !sc.HasFailures() {
				continue
			}
			lv := routing.NewLocalView(topo, sc)
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			if src == dst {
				continue
			}
			outcome, initiator, _ := routing.TraceDefault(tables, lv, src, dst)
			if outcome != routing.DefaultBlocked {
				continue
			}
			cases++
			sess, err := r.NewSession(lv, initiator)
			if err != nil {
				t.Fatal(err)
			}
			_, trigger, _ := tables.NextHop(initiator, dst)
			col, err := sess.Collect(trigger)
			if errors.Is(err, ErrNoLiveNeighbor) {
				continue // fully cut-off initiator: nothing to recover
			}
			if err != nil {
				t.Fatalf("%s: collect: %v", as, err) // Theorem 1: must terminate
			}
			for _, id := range col.Header.FailedLinks {
				if !sc.LinkDown(id) {
					t.Fatalf("%s: collected live link %v", as, topo.G.Link(id))
				}
			}
			rt, ok := sess.RecoveryPath(dst)
			if !ok {
				continue
			}
			fwd := sess.ForwardSourceRouted(rt)
			if !fwd.Delivered {
				continue // phase 1 missed a failure; counted as unrecovered
			}
			truth := spt.Compute(topo.G, initiator, sc)
			opt, reachable := truth.CostTo(dst)
			if !reachable {
				t.Fatalf("%s: delivered to unreachable destination", as)
			}
			if rt.Cost != opt {
				t.Fatalf("%s: Theorem 2 violated: delivered cost %v, optimum %v", as, rt.Cost, opt)
			}
		}
	}
}

func TestSeedFailedLinksInfluencesPath(t *testing.T) {
	topo, _, _, sess, trigger := paperWorld(t)
	if _, err := sess.Collect(trigger); err != nil {
		t.Fatal(err)
	}
	base, ok := sess.RecoveryPath(topology.PaperNode(17))
	if !ok {
		t.Fatal("need baseline route")
	}
	// Seed every link of the baseline route as failed: the session
	// must recompute and avoid them all.
	sess.SeedFailedLinks(base.Links)
	rt, ok := sess.RecoveryPath(topology.PaperNode(17))
	if !ok {
		// Still fine if now unreachable, but with this fixture a
		// longer detour exists.
		t.Fatal("detour must exist in the fixture")
	}
	for _, l := range rt.Links {
		for _, s := range base.Links {
			if l == s {
				t.Errorf("seeded failed link %v reused", topo.G.Link(l))
			}
		}
	}
	if rt.Hops() <= base.Hops() {
		t.Errorf("detour (%d hops) must be longer than baseline (%d hops)", rt.Hops(), base.Hops())
	}
}

func TestDeliverPaperExample(t *testing.T) {
	topo, r, lv, _, _ := paperWorld(t)
	tables := routing.ComputeTables(topo)
	res, err := r.Deliver(tables, lv, topology.PaperNode(7), topology.PaperNode(17))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("delivery failed: %s", res.Reason)
	}
	if len(res.Initiators) != 1 || res.Initiators[0] != topology.PaperNode(6) {
		t.Errorf("initiators = %v, want [v6]", res.Initiators)
	}
	// 1 default hop + 11 walk hops + 5 recovery hops.
	if res.TotalHops != 17 {
		t.Errorf("total hops = %d, want 17", res.TotalHops)
	}
	if res.SPCalcs != 1 {
		t.Errorf("SP calcs = %d, want 1", res.SPCalcs)
	}
}

func TestDeliverUnaffectedPath(t *testing.T) {
	topo, r, lv, _, _ := paperWorld(t)
	tables := routing.ComputeTables(topo)
	res, err := r.Deliver(tables, lv, topology.PaperNode(1), topology.PaperNode(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || len(res.Initiators) != 0 || res.SPCalcs != 0 {
		t.Errorf("unaffected path must deliver without recovery: %+v", res)
	}
}

func TestDeliverToFailedDestination(t *testing.T) {
	topo, r, lv, _, _ := paperWorld(t)
	tables := routing.ComputeTables(topo)
	res, err := r.Deliver(tables, lv, topology.PaperNode(5), topology.PaperNode(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("delivery to a failed node must fail")
	}
	if res.Reason == "" {
		t.Error("failure must carry a reason")
	}
}

func TestDeliverFromFailedSource(t *testing.T) {
	topo, r, lv, _, _ := paperWorld(t)
	tables := routing.ComputeTables(topo)
	res, err := r.Deliver(tables, lv, topology.PaperNode(10), topology.PaperNode(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered || res.Reason != "source down" {
		t.Errorf("res = %+v, want source down", res)
	}
}

// TestDeliverMultiArea: two disjoint failure areas on a generated
// topology; whenever Deliver succeeds the destination must truly be
// reachable, and chained recoveries must report every initiator.
func TestDeliverMultiArea(t *testing.T) {
	topo := topology.GenerateAS("AS3320", 5)
	r := New(topo, nil)
	tables := routing.ComputeTables(topo)
	rng := rand.New(rand.NewSource(9))

	delivered, chained := 0, 0
	for i := 0; i < 150; i++ {
		a1 := failure.RandomArea(rng, 100, 250)
		a2 := failure.RandomArea(rng, 100, 250)
		sc := failure.NewScenario(topo, a1, a2)
		lv := routing.NewLocalView(topo, sc)
		src := graph.NodeID(rng.Intn(topo.G.NumNodes()))
		dst := graph.NodeID(rng.Intn(topo.G.NumNodes()))
		if src == dst || sc.NodeDown(src) {
			continue
		}
		res, err := r.Deliver(tables, lv, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			delivered++
			if !topo.G.Connected(src, dst, sc) {
				t.Fatal("delivered across a true partition")
			}
			if len(res.Initiators) > 1 {
				chained++
			}
		}
	}
	if delivered == 0 {
		t.Error("some deliveries must succeed across 150 two-area trials")
	}
	t.Logf("multi-area: %d delivered, %d via chained recoveries", delivered, chained)
}
