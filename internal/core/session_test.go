package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// RecoveryPath before Collect is legal: the initiator then prunes only
// its own unreachable links (the degenerate "no phase 1" mode). On the
// fixture the naive view still misses e4-11 and e5-10, so the computed
// 5-hop path may or may not be usable depending on tie-breaking —
// either way the invariants hold: a failure-free path is optimal
// (Theorem 2) and a bad pick is caught during forwarding.
func TestRecoveryPathWithoutCollect(t *testing.T) {
	topo, _, _, sess, _ := paperWorld(t)
	rt, ok := sess.RecoveryPath(topology.PaperNode(17))
	if !ok {
		t.Fatal("local-only recovery must still find a candidate path")
	}
	if rt.Hops() != 5 {
		t.Fatalf("local-only path has %d hops, want 5", rt.Hops())
	}
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	fwd := sess.ForwardSourceRouted(rt)
	if fwd.Delivered {
		for _, l := range rt.Links {
			if sc.LinkDown(l) {
				t.Fatal("delivered across a failed link")
			}
		}
	} else if !sc.LinkDown(fwd.DropLink) {
		t.Errorf("dropped on live link %v", topo.G.Link(fwd.DropLink))
	}
	if sess.SPCalcs() != 1 {
		t.Errorf("SPCalcs = %d, want 1", sess.SPCalcs())
	}
}

// Collect after RecoveryPath invalidates the cached tree: subsequent
// paths use the collected information (and cost one more computation).
func TestCollectInvalidatesCachedTree(t *testing.T) {
	topo, _, _, sess, trigger := paperWorld(t)
	if _, ok := sess.RecoveryPath(topology.PaperNode(17)); !ok {
		t.Fatal("need the naive path first")
	}
	if _, err := sess.Collect(trigger); err != nil {
		t.Fatal(err)
	}
	rt, ok := sess.RecoveryPath(topology.PaperNode(17))
	if !ok {
		t.Fatal("post-collection recovery must succeed")
	}
	if rt.Hops() != 5 {
		t.Errorf("post-collection path has %d hops, want 5", rt.Hops())
	}
	if fwd := sess.ForwardSourceRouted(rt); !fwd.Delivered {
		t.Error("post-collection path must deliver")
	}
	if sess.SPCalcs() != 2 {
		t.Errorf("SPCalcs = %d, want 2 (naive + post-collection)", sess.SPCalcs())
	}
	_ = topo
}

// Every phase-2 header RTR builds fits the paper's wire format, across
// random scenarios.
func TestSourceRouteHeadersAlwaysEncode(t *testing.T) {
	topo := topology.GenerateAS("AS209", 11)
	r := New(topo, nil)
	tables := routing.ComputeTables(topo)
	rng := rand.New(rand.NewSource(17))
	n := topo.G.NumNodes()
	checked := 0
	for checked < 100 {
		sc := failure.RandomScenario(topo, rng)
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
		sess, err := r.NewSession(lv, initiator)
		if err != nil {
			t.Fatal(err)
		}
		_, trigger, _ := tables.NextHop(initiator, dst)
		if _, err := sess.Collect(trigger); errors.Is(err, ErrNoLiveNeighbor) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		rt, ok := sess.RecoveryPath(dst)
		if !ok {
			continue
		}
		checked++
		h := sess.SourceRouteHeader(rt)
		if !fitsWire(h) || len(h.SourceRoute) != len(rt.Nodes) || h.RecInit != initiator {
			t.Fatalf("header mangled or past the wire's 16-bit fields: %+v", h)
		}
		// The collection header must fit the wire too.
		if ch := sess.Collected().Header; !fitsWire(ch) {
			t.Fatalf("collect header past the wire's 16-bit fields: %+v", ch)
		}
	}
}

// fitsWire reports whether every ID and count in h fits the paper's
// 16-bit header fields: what the reference codec in the routing
// package's tests needs to encode h, and every such header round-trips
// (routing's TestHeaderRoundTripProperty).
func fitsWire(h routing.Header) bool {
	ok := h.RecInit <= 0xFFFF && h.SourceIdx >= 0 && h.SourceIdx <= len(h.SourceRoute) &&
		max(len(h.FailedLinks), len(h.CrossLinks), len(h.SourceRoute)) <= 0xFFFF
	for _, id := range h.FailedLinks {
		ok = ok && id <= 0xFFFF
	}
	for _, id := range h.CrossLinks {
		ok = ok && id <= 0xFFFF
	}
	for _, v := range h.SourceRoute {
		ok = ok && v <= 0xFFFF
	}
	return ok
}
