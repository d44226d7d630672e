package invariant

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/mrc"
	"repro/internal/routing"
	"repro/internal/sim"
)

// The mutation tests prove every invariant check actually fires:
// each takes a genuine, clean protocol artifact, applies one targeted
// corruption, and asserts the specific check catches it. A check no
// mutation can trip is a check that verifies nothing.

// rtrArtifacts is one clean RTR run the mutations start from.
type rtrArtifacts struct {
	c   *sim.Case
	col *core.CollectResult
	rt  core.Route
	fwd core.ForwardResult
}

// gatherRTR scans random scenarios for clean RTR artifacts with the
// structural properties the mutations need: a delivered multi-link
// route, a truncated walk with a retrace of at least two hops, and a
// cross-seeded header.
func gatherRTR(t *testing.T, w *sim.World) (delivered, truncated, seeded rtrArtifacts) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var haveDel, haveTrunc, haveSeed bool
	k := New(w)
	for s := 0; s < 400 && !(haveDel && haveTrunc && haveSeed); s++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, _ := sim.CasesFromScenario(w, sc)
		for _, c := range rec {
			sess, err := w.RTR.NewSession(c.LV, c.Initiator)
			if err != nil {
				continue
			}
			col, err := sess.Collect(c.Trigger)
			if err != nil {
				continue
			}
			rt, ok := sess.RecoveryPath(c.Dst)
			if !ok {
				continue
			}
			fwd := sess.ForwardSourceRouted(rt)
			a := rtrArtifacts{c: c, col: col, rt: rt, fwd: fwd}
			if !haveDel && fwd.Delivered && len(rt.Links) >= 2 && len(col.Walk.Records) >= 3 {
				delivered, haveDel = a, true
			}
			if !haveTrunc && col.Truncated {
				if f := retraceSplit(col.Walk.Records, c.Initiator); f >= 0 && len(col.Walk.Records)-f >= 2 {
					truncated, haveTrunc = a, true
				}
			}
			if !haveSeed && k.crossSeedCount(c) > 0 && len(col.Header.CrossLinks) > 0 && len(col.Walk.Records) >= 1 {
				seeded, haveSeed = a, true
			}
		}
	}
	if !haveDel || !haveTrunc || !haveSeed {
		t.Fatalf("could not gather RTR artifacts: delivered=%v truncated=%v seeded=%v", haveDel, haveTrunc, haveSeed)
	}
	return delivered, truncated, seeded
}

func cloneCollect(col *core.CollectResult) *core.CollectResult {
	cp := *col
	cp.Header.FailedLinks = append([]graph.LinkID(nil), col.Header.FailedLinks...)
	cp.Header.CrossLinks = append([]graph.LinkID(nil), col.Header.CrossLinks...)
	cp.Walk.Records = append([]routing.HopRecord(nil), col.Walk.Records...)
	cp.FieldSizes = append([]core.FieldSizes(nil), col.FieldSizes...)
	return &cp
}

func cloneRoute(rt core.Route) core.Route {
	rt.Nodes = append([]graph.NodeID(nil), rt.Nodes...)
	rt.Links = append([]graph.LinkID(nil), rt.Links...)
	return rt
}

func requireCheck(t *testing.T, vs []Violation, id string) {
	t.Helper()
	if !hasCheck(vs, id) {
		t.Errorf("mutation did not fire %s; got %d violations: %v", id, len(vs), vs)
	}
}

func TestMutationsCollect(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	del, trunc, seeded := gatherRTR(t, w)
	g := w.Topo.G

	t.Run("clean-passes", func(t *testing.T) {
		for _, a := range []rtrArtifacts{del, trunc, seeded} {
			if vs := k.checkCollect(a.c, a.col); len(vs) > 0 {
				t.Fatalf("clean artifact flagged: %v", vs[0])
			}
		}
	})
	t.Run("rtr/walk-header", func(t *testing.T) {
		cp := cloneCollect(del.col)
		cp.Header.RecInit = del.c.Dst
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/walk-header")
	})
	t.Run("rtr/walk-empty", func(t *testing.T) {
		cp := cloneCollect(del.col)
		cp.Walk.Records, cp.FieldSizes = nil, nil
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/walk-empty")
	})
	t.Run("rtr/walk-contiguous", func(t *testing.T) {
		cp := cloneCollect(del.col)
		cp.Walk.Records[0], cp.Walk.Records[1] = cp.Walk.Records[1], cp.Walk.Records[0]
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/walk-contiguous")
	})
	t.Run("rtr/walk-firsthop", func(t *testing.T) {
		cp := cloneCollect(del.col)
		cp.FirstHop = del.c.Initiator // first hop is a neighbor, never the initiator
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/walk-firsthop")
	})
	t.Run("rtr/walk-dead-link", func(t *testing.T) {
		cp := cloneCollect(del.col)
		cp.Walk.Records[0] = routing.HopRecord{
			From: del.c.Initiator,
			To:   g.Link(del.c.Trigger).Other(del.c.Initiator),
			Link: del.c.Trigger, // the trigger link is unreachable by construction
		}
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/walk-dead-link")
	})
	t.Run("rtr/walk-open", func(t *testing.T) {
		cp := cloneCollect(del.col)
		cp.Walk.Records = cp.Walk.Records[:len(cp.Walk.Records)-1]
		cp.FieldSizes = cp.FieldSizes[:len(cp.FieldSizes)-1]
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/walk-open")
	})
	t.Run("rtr/fieldsizes", func(t *testing.T) {
		cp := cloneCollect(del.col)
		cp.FieldSizes[len(cp.FieldSizes)-1].Failed++
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/fieldsizes")
	})
	t.Run("rtr/failed-not-observed", func(t *testing.T) {
		cp := cloneCollect(del.col)
		// The first walked link is live — recording it as failed is a lie.
		cp.Header.FailedLinks = append(cp.Header.FailedLinks, cp.Walk.Records[0].Link)
		cp.FieldSizes[len(cp.FieldSizes)-1].Failed = len(cp.Header.FailedLinks)
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/failed-not-observed")
	})
	t.Run("rtr/cross-seed", func(t *testing.T) {
		cp := cloneCollect(seeded.col)
		// Seed slots must hold unreachable crossing links of the
		// initiator; the first walked link is live.
		cp.Header.CrossLinks[0] = cp.Walk.Records[0].Link
		requireCheck(t, k.checkCollect(seeded.c, cp), "rtr/cross-seed")
	})
	t.Run("rtr/cross-untraversed", func(t *testing.T) {
		cp := cloneCollect(del.col)
		traversed := map[graph.LinkID]bool{}
		for _, rec := range cp.Walk.Records {
			traversed[rec.Link] = true
		}
		var alien graph.LinkID
		found := false
		for i := 0; i < g.NumLinks(); i++ {
			if !traversed[graph.LinkID(i)] {
				alien, found = graph.LinkID(i), true
				break
			}
		}
		if !found {
			t.Skip("walk traversed every link")
		}
		cp.Header.CrossLinks = append(cp.Header.CrossLinks, alien)
		cp.FieldSizes[len(cp.FieldSizes)-1].Cross = len(cp.Header.CrossLinks)
		requireCheck(t, k.checkCollect(del.c, cp), "rtr/cross-untraversed")
	})
	t.Run("rtr/retrace-invalid", func(t *testing.T) {
		cp := cloneCollect(trunc.col)
		n := len(cp.Walk.Records)
		cp.Walk.Records[n-1], cp.Walk.Records[n-2] = cp.Walk.Records[n-2], cp.Walk.Records[n-1]
		requireCheck(t, k.checkCollect(trunc.c, cp), "rtr/retrace-invalid")
	})
	t.Run("rtr/cross-violation", func(t *testing.T) {
		// Pretend a link crossing hop i's selected link was already in
		// cross_link from the start: the replay must reject the hop.
		for _, a := range []rtrArtifacts{del, seeded} {
			recs := a.col.Walk.Records
			n := len(recs)
			if a.col.Truncated {
				n = retraceSplit(recs, a.c.Initiator)
			}
			for i := 1; i < n; i++ {
				l := recs[i].Link
				if g.Link(l).HasEndpoint(a.c.Initiator) || l == recs[i-1].Link {
					continue
				}
				xs := w.CI.Crossing(l)
				if len(xs) == 0 {
					continue
				}
				cp := cloneCollect(a.col)
				cp.Header.CrossLinks = append(cp.Header.CrossLinks, xs[0])
				for j := range cp.FieldSizes {
					cp.FieldSizes[j].Cross = len(cp.Header.CrossLinks)
				}
				requireCheck(t, k.checkCollect(a.c, cp), "rtr/cross-violation")
				return
			}
		}
		t.Skip("no forward hop with a crossing link found")
	})
}

func TestMutationsRecoveryPath(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	del, _, _ := gatherRTR(t, w)

	t.Run("clean-passes", func(t *testing.T) {
		if vs := k.checkRecoveryPath(del.c, del.col, del.rt, true); len(vs) > 0 {
			t.Fatalf("clean route flagged: %v", vs[0])
		}
	})
	t.Run("rtr/early-discard-wrong", func(t *testing.T) {
		// The destination is provably reachable (the clean run routed to
		// it); claiming early discard must be caught.
		requireCheck(t, k.checkRecoveryPath(del.c, del.col, core.Route{}, false), "rtr/early-discard-wrong")
	})
	t.Run("rtr/route-endpoints", func(t *testing.T) {
		rt := cloneRoute(del.rt)
		rt.Nodes[0] = del.c.Dst
		requireCheck(t, k.checkRecoveryPath(del.c, del.col, rt, true), "rtr/route-endpoints")
	})
	t.Run("rtr/route-contiguous", func(t *testing.T) {
		rt := cloneRoute(del.rt)
		rt.Links = rt.Links[:len(rt.Links)-1]
		requireCheck(t, k.checkRecoveryPath(del.c, del.col, rt, true), "rtr/route-contiguous")
	})
	t.Run("rtr/route-uses-collected", func(t *testing.T) {
		// Falsely collect the route's own first link: the route now
		// traverses a link its own header says is down.
		cp := cloneCollect(del.col)
		cp.Header.FailedLinks = append(cp.Header.FailedLinks, del.rt.Links[0])
		requireCheck(t, k.checkRecoveryPath(del.c, cp, del.rt, true), "rtr/route-uses-collected")
	})
	t.Run("rtr/route-loop", func(t *testing.T) {
		rt := cloneRoute(del.rt)
		// Splice in an immediate back-and-forth over the first link:
		// contiguity holds, but node 0 repeats.
		n0, n1, l0 := rt.Nodes[0], rt.Nodes[1], rt.Links[0]
		rt.Nodes = append([]graph.NodeID{n0, n1, n0}, rt.Nodes[1:]...)
		rt.Links = append([]graph.LinkID{l0, l0}, rt.Links...)
		requireCheck(t, k.checkRecoveryPath(del.c, del.col, rt, true), "rtr/route-loop")
	})
	t.Run("rtr/route-cost-and-suboptimal", func(t *testing.T) {
		rt := cloneRoute(del.rt)
		rt.Cost++
		vs := k.checkRecoveryPath(del.c, del.col, rt, true)
		requireCheck(t, vs, "rtr/route-cost")
		requireCheck(t, vs, "rtr/route-suboptimal")
	})
	t.Run("rtr/route-unreachable", func(t *testing.T) {
		// Falsely collect every live link of the destination: the pruned
		// view then has no path, yet a route is still returned.
		cp := cloneCollect(del.col)
		for _, he := range w.Topo.G.Adj(del.c.Dst) {
			cp.Header.FailedLinks = append(cp.Header.FailedLinks, he.Link)
		}
		requireCheck(t, k.checkRecoveryPath(del.c, cp, del.rt, true), "rtr/route-unreachable")
	})
}

func TestMutationsRTRForward(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	g := w.Topo.G
	del, _, _ := gatherRTR(t, w)

	cloneFwd := func(f core.ForwardResult) core.ForwardResult {
		f.Walk.Records = append([]routing.HopRecord(nil), f.Walk.Records...)
		return f
	}

	t.Run("clean-passes", func(t *testing.T) {
		if vs := k.checkRTRForward(del.c, del.rt, del.fwd); len(vs) > 0 {
			t.Fatalf("clean forward flagged: %v", vs[0])
		}
	})
	t.Run("rtr/forward-prefix", func(t *testing.T) {
		fwd := cloneFwd(del.fwd)
		fwd.Walk.Records[0].From = del.c.Dst
		requireCheck(t, k.checkRTRForward(del.c, del.rt, fwd), "rtr/forward-prefix")
	})
	t.Run("rtr/drop-site", func(t *testing.T) {
		fwd := cloneFwd(del.fwd)
		fwd.Walk.Records = fwd.Walk.Records[:len(fwd.Walk.Records)-1]
		fwd.Delivered = false
		fwd.DropAt = del.rt.Nodes[0] // trajectory actually stops later
		fwd.DropLink = del.rt.Links[0]
		requireCheck(t, k.checkRTRForward(del.c, del.rt, fwd), "rtr/drop-site")
	})
	t.Run("rtr/drop-live-link", func(t *testing.T) {
		fwd := cloneFwd(del.fwd)
		hops := len(fwd.Walk.Records) - 1
		fwd.Walk.Records = fwd.Walk.Records[:hops]
		fwd.Delivered = false
		fwd.DropAt = del.rt.Nodes[hops] // consistent drop site...
		fwd.DropLink = del.rt.Links[hops]
		requireCheck(t, k.checkRTRForward(del.c, del.rt, fwd), "rtr/drop-live-link") // ...but the link is live
	})
	t.Run("rtr/theorem2", func(t *testing.T) {
		rt := cloneRoute(del.rt)
		rt.Cost++
		requireCheck(t, k.checkRTRForward(del.c, rt, del.fwd), "rtr/theorem2")
	})
	t.Run("truth/delivery-dead-link", func(t *testing.T) {
		// Fabricate a "delivery" straight over the failed trigger link.
		c := del.c
		nh := g.Link(c.Trigger).Other(c.Initiator)
		rt := core.Route{
			Nodes: []graph.NodeID{c.Initiator, nh},
			Links: []graph.LinkID{c.Trigger},
			Cost:  g.Link(c.Trigger).CostFrom(c.Initiator),
		}
		fwd := core.ForwardResult{Delivered: true}
		fwd.Walk.Append(routing.HopRecord{From: c.Initiator, To: nh, Link: c.Trigger})
		requireCheck(t, k.checkRTRForward(c, rt, fwd), "truth/delivery-dead-link")
	})
	t.Run("truth/delivered-irrecoverable", func(t *testing.T) {
		// Find an irrecoverable case and fabricate a delivery claim.
		rng := rand.New(rand.NewSource(33))
		for s := 0; s < 200; s++ {
			sc := failure.RandomScenario(w.Topo, rng)
			_, irr := sim.CasesFromScenario(w, sc)
			for _, c := range irr {
				nh := g.Link(c.Trigger).Other(c.Initiator)
				rt := core.Route{
					Nodes: []graph.NodeID{c.Initiator, nh},
					Links: []graph.LinkID{c.Trigger},
					Cost:  g.Link(c.Trigger).CostFrom(c.Initiator),
				}
				fwd := core.ForwardResult{Delivered: true}
				fwd.Walk.Append(routing.HopRecord{From: c.Initiator, To: nh, Link: c.Trigger})
				requireCheck(t, k.checkRTRForward(c, rt, fwd), "truth/delivered-irrecoverable")
				return
			}
		}
		t.Skip("no irrecoverable case found")
	})
}

func TestMutationsFCP(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	g := w.Topo.G

	// Gather one delivered (>= 3 hops) and one dropped clean FCP result.
	var delC, dropC *sim.Case
	var delR, dropR sim.FCPResult
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 400 && (delC == nil || dropC == nil); s++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		for _, c := range append(rec, irr...) {
			res, err := sim.RunFCP(w, c, nil)
			if err != nil {
				continue
			}
			if res.Delivered && res.Walk.Hops() >= 3 && delC == nil {
				delC, delR = c, res
			}
			if !res.Delivered && dropC == nil {
				dropC, dropR = c, res
			}
		}
	}
	if delC == nil || dropC == nil {
		t.Fatalf("could not gather FCP artifacts: delivered=%v dropped=%v", delC != nil, dropC != nil)
	}
	clone := func(r sim.FCPResult) sim.FCPResult {
		r.Walk.Records = append([]routing.HopRecord(nil), r.Walk.Records...)
		r.Header.FailedLinks = append([]graph.LinkID(nil), r.Header.FailedLinks...)
		r.Header.SourceRoute = append([]graph.NodeID(nil), r.Header.SourceRoute...)
		return r
	}

	t.Run("clean-passes", func(t *testing.T) {
		if vs := k.checkFCP(delC, delR); len(vs) > 0 {
			t.Fatalf("clean delivered result flagged: %v", vs[0])
		}
		if vs := k.checkFCP(dropC, dropR); len(vs) > 0 {
			t.Fatalf("clean dropped result flagged: %v", vs[0])
		}
	})
	t.Run("fcp/walk-contiguous", func(t *testing.T) {
		r := clone(delR)
		r.Walk.Records[0], r.Walk.Records[1] = r.Walk.Records[1], r.Walk.Records[0]
		requireCheck(t, k.checkFCP(delC, r), "fcp/walk-contiguous")
	})
	t.Run("fcp/walk-dead-link", func(t *testing.T) {
		r := clone(delR)
		r.Walk.Records[0] = routing.HopRecord{
			From: delC.Initiator,
			To:   g.Link(delC.Trigger).Other(delC.Initiator),
			Link: delC.Trigger,
		}
		requireCheck(t, k.checkFCP(delC, r), "fcp/walk-dead-link")
	})
	t.Run("fcp/walk-failed-link", func(t *testing.T) {
		r := clone(delR)
		r.Header.FailedLinks = append(r.Header.FailedLinks, r.Walk.Records[0].Link)
		requireCheck(t, k.checkFCP(delC, r), "fcp/walk-failed-link")
	})
	t.Run("fcp/failed-not-observed", func(t *testing.T) {
		r := clone(delR)
		visited := map[graph.NodeID]bool{delC.Initiator: true}
		for _, rec := range r.Walk.Records {
			visited[rec.To] = true
		}
		for i := 0; i < g.NumLinks(); i++ {
			l := g.Link(graph.LinkID(i))
			if !visited[l.A] && !visited[l.B] {
				r.Header.FailedLinks = append(r.Header.FailedLinks, l.ID)
				requireCheck(t, k.checkFCP(delC, r), "fcp/failed-not-observed")
				return
			}
		}
		t.Skip("walk visited an endpoint of every link")
	})
	t.Run("fcp/route-loop", func(t *testing.T) {
		r := clone(delR)
		if len(r.Header.SourceRoute) == 0 {
			t.Fatal("delivered result carries no source route")
		}
		r.Header.SourceRoute = append(r.Header.SourceRoute, r.Header.SourceRoute[0])
		requireCheck(t, k.checkFCP(delC, r), "fcp/route-loop")
	})
	t.Run("fcp/delivery-wrong-dst", func(t *testing.T) {
		r := clone(delR)
		r.Walk.Records = r.Walk.Records[:len(r.Walk.Records)-1]
		requireCheck(t, k.checkFCP(delC, r), "fcp/delivery-wrong-dst")
	})
	t.Run("truth/delivery-beats-shortest", func(t *testing.T) {
		r := clone(delR)
		// Excising a middle hop shortens the claimed delivery below the
		// true shortest path (all link costs are positive).
		recs := r.Walk.Records
		r.Walk.Records = append(recs[:1], recs[2:]...)
		requireCheck(t, k.checkFCP(delC, r), "truth/delivery-beats-shortest")
	})
	t.Run("fcp/drop-premature", func(t *testing.T) {
		r := clone(dropR)
		// Forget every carried failure: the pruned view is the clean
		// (connected) graph, which certainly has a path — the drop claim
		// no longer holds up.
		r.Header.FailedLinks = nil
		requireCheck(t, k.checkFCP(dropC, r), "fcp/drop-premature")
	})
}

func TestMutationsMRC(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	g := w.Topo.G

	var delC, dropC, unprotC *sim.Case
	var delR, dropR sim.MRCResult
	rng := rand.New(rand.NewSource(9))
	for s := 0; s < 400 && (delC == nil || dropC == nil || unprotC == nil); s++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		for _, c := range append(rec, irr...) {
			res, err := sim.RunMRC(w, c, nil)
			if err != nil {
				continue
			}
			if res.Delivered && res.Walk.Hops() >= 3 && delC == nil {
				delC, delR = c, res
			}
			if !res.Delivered && res.Walk.Hops() >= 1 && dropC == nil {
				dropC, dropR = c, res
			}
			want := w.MRC.ConfigOf(c.NextHop)
			if c.NextHop == c.Dst {
				want = w.MRC.ConfigOf(c.Initiator)
			}
			if want == mrc.Unisolated && unprotC == nil {
				unprotC = c
			}
		}
	}
	if delC == nil || dropC == nil {
		t.Fatalf("could not gather MRC artifacts: delivered=%v dropped=%v", delC != nil, dropC != nil)
	}
	clone := func(r sim.MRCResult) sim.MRCResult {
		r.Walk.Records = append([]routing.HopRecord(nil), r.Walk.Records...)
		return r
	}

	t.Run("clean-passes", func(t *testing.T) {
		if vs := k.checkMRC(delC, delR); len(vs) > 0 {
			t.Fatalf("clean delivered result flagged: %v", vs[0])
		}
		if vs := k.checkMRC(dropC, dropR); len(vs) > 0 {
			t.Fatalf("clean dropped result flagged: %v", vs[0])
		}
	})
	t.Run("mrc/config-selection", func(t *testing.T) {
		r := clone(delR)
		r.Config = (r.Config + 1) % w.MRC.Configs()
		requireCheck(t, k.checkMRC(delC, r), "mrc/config-selection")
	})
	t.Run("mrc/unprotected-forwarded", func(t *testing.T) {
		if unprotC == nil {
			t.Skip("no case with an unprotected suspected element")
		}
		r := sim.MRCResult{Config: mrc.Unisolated, Delivered: true}
		requireCheck(t, k.checkMRC(unprotC, r), "mrc/unprotected-forwarded")
	})
	t.Run("mrc/walk-contiguous", func(t *testing.T) {
		r := clone(delR)
		r.Walk.Records[0], r.Walk.Records[1] = r.Walk.Records[1], r.Walk.Records[0]
		requireCheck(t, k.checkMRC(delC, r), "mrc/walk-contiguous")
	})
	t.Run("mrc/walk-dead-link-and-exclude", func(t *testing.T) {
		r := clone(delR)
		r.Walk.Records[0] = routing.HopRecord{
			From: delC.Initiator,
			To:   g.Link(delC.Trigger).Other(delC.Initiator),
			Link: delC.Trigger,
		}
		vs := k.checkMRC(delC, r)
		requireCheck(t, vs, "mrc/walk-dead-link")
		requireCheck(t, vs, "mrc/exclude-violated")
	})
	t.Run("mrc/walk-loop", func(t *testing.T) {
		r := clone(delR)
		last := r.Walk.Records[len(r.Walk.Records)-1]
		r.Walk.Append(routing.HopRecord{From: last.To, To: last.From, Link: last.Link})
		requireCheck(t, k.checkMRC(delC, r), "mrc/walk-loop")
	})
	t.Run("mrc/isolated-link", func(t *testing.T) {
		// The reverted Route bug in one mutation: forward over a link
		// both of whose endpoints are isolated in the chosen config.
		for i := 0; i < g.NumLinks(); i++ {
			l := g.Link(graph.LinkID(i))
			c0 := w.MRC.ConfigOf(l.A)
			if c0 == mrc.Unisolated || w.MRC.ConfigOf(l.B) != c0 {
				continue
			}
			r := sim.MRCResult{Config: c0, DropAt: l.B}
			r.Walk.Append(routing.HopRecord{From: l.A, To: l.B, Link: l.ID})
			requireCheck(t, k.checkMRC(delC, r), "mrc/isolated-link")
			return
		}
		t.Skip("no link with both endpoints in one configuration")
	})
	t.Run("mrc/restricted-and-transit", func(t *testing.T) {
		// A restricted link used mid-route (hop > 0, isolated endpoint
		// is not the destination) violates both the restricted-use and
		// the no-isolated-transit rules.
		first := delR.Walk.Records[0]
		for i := 0; i < g.NumLinks(); i++ {
			l := g.Link(graph.LinkID(i))
			cfg := delR.Config
			aIso := w.MRC.ConfigOf(l.A) == cfg
			bIso := w.MRC.ConfigOf(l.B) == cfg
			if aIso == bIso {
				continue
			}
			from, iso := l.A, l.B
			if aIso {
				from, iso = l.B, l.A
			}
			if iso == delC.Dst {
				continue
			}
			r := sim.MRCResult{Config: cfg, DropAt: iso}
			r.Walk.Append(first)
			r.Walk.Append(routing.HopRecord{From: from, To: iso, Link: l.ID})
			vs := k.checkMRC(delC, r)
			requireCheck(t, vs, "mrc/restricted-misuse")
			requireCheck(t, vs, "mrc/isolated-transit")
			return
		}
		t.Skip("no restricted link found for the delivered config")
	})
	t.Run("mrc/delivery-wrong-dst", func(t *testing.T) {
		r := clone(delR)
		r.Walk.Records = r.Walk.Records[:len(r.Walk.Records)-1]
		requireCheck(t, k.checkMRC(delC, r), "mrc/delivery-wrong-dst")
	})
	t.Run("mrc/drop-site", func(t *testing.T) {
		r := clone(dropR)
		r.DropAt = dropC.Initiator // trajectory stopped elsewhere
		requireCheck(t, k.checkMRC(dropC, r), "mrc/drop-site")
	})
}

// TestCheckReadsTheSharedSession: the oracle checks the answer a case
// rode, not a re-run of it. Corrupting the collection walk, or the
// failed_link header, of a State's shared sessions must be caught in
// every outcome RunCase then returns on that State.
func TestCheckReadsTheSharedSession(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	corruptions := map[string]func(col *core.CollectResult){
		"walk": func(col *core.CollectResult) {
			recs := col.Walk.Records
			recs[0], recs[len(recs)-1] = recs[len(recs)-1], recs[0]
		},
		"failed_link": func(col *core.CollectResult) {
			// The first walked link is live: recording it is a lie.
			col.Header.FailedLinks = append(col.Header.FailedLinks, col.Walk.Records[0].Link)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			rode, caught := 0, 0
			for s := 0; s < 40 && rode < 40; s++ {
				sc := failure.RandomScenario(w.Topo, rng)
				st := w.Converged(sc)
				rec, irr := sim.CasesFromScenario(w, sc)
				var cases []*sim.Case
				for _, c := range append(rec, irr...) {
					c, err := sim.CaseAt(st, c.Initiator, c.Dst)
					if err != nil {
						t.Fatal(err)
					}
					cases = append(cases, c)
				}
				corrupted := map[*core.Session]bool{}
				var rt core.Route
				for _, c := range cases {
					o := sim.RunCase(w, c, sim.PaperSchemes(), &rt)
					if vs := k.Check(o); len(vs) > 0 {
						t.Fatalf("clean outcome flagged: %v", vs[0])
					}
					if sess := o.RTR.Session; sess != nil && len(o.RTR.Phase1.Records) >= 2 {
						corrupted[sess] = true
					}
				}
				for sess := range corrupted {
					corrupt(sess.Collected())
				}
				for _, c := range cases {
					o := sim.RunCase(w, c, sim.PaperSchemes(), &rt)
					if !corrupted[o.RTR.Session] {
						continue
					}
					rode++
					if len(k.Check(o)) > 0 {
						caught++
					}
				}
			}
			if rode == 0 || caught != rode {
				t.Fatalf("caught %d of %d outcomes that rode a corrupted session", caught, rode)
			}
			t.Logf("caught %d of %d", caught, rode)
		})
	}
}
