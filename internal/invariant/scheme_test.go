package invariant

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/routing"
	"repro/internal/sim"
)

// resultArtifacts is a clean rtr-spread delivery (the registered
// scheme CheckResult covers) and an irrecoverable case, the starting
// points of the generic-contract mutations.
type resultArtifacts struct {
	c   *sim.Case
	r   sim.Result
	irr *sim.Case
}

func gatherResult(t *testing.T, w *sim.World) resultArtifacts {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var a resultArtifacts
	for s := 0; s < 400 && (a.c == nil || a.irr == nil); s++ {
		sc := failure.RandomScenario(w.Topo, rng)
		st := w.Converged(sc)
		rec, irr := sim.CasesFromScenario(w, sc)
		if a.irr == nil && len(irr) > 0 {
			a.irr = irr[0]
		}
		for _, c := range rec {
			if a.c != nil {
				break
			}
			c, err := sim.CaseAt(st, c.Initiator, c.Dst)
			if err != nil {
				t.Fatal(err)
			}
			pre, _ := w.Tables.Dist(c.Initiator, c.Dst)
			opt, _ := sim.TruthCost(w, c, nil)
			r, err := sim.Spread{K: sim.SpreadK}.Run(w, c)
			if err == nil && r.Delivered && len(r.Walks) == 1 && len(r.Walks[0].Records) >= 2 && opt > pre+1e-6 {
				a.c, a.r = c, r
			}
		}
	}
	if a.c == nil || a.irr == nil {
		t.Fatal("could not gather a delivered rtr-spread result and an irrecoverable case")
	}
	return a
}

// withRecords returns r delivered over exactly recs.
func withRecords(r sim.Result, recs []routing.HopRecord) sim.Result {
	r.Walks = []routing.Walk{{Records: recs}}
	return r
}

// prePath is the pre-failure route from c's initiator to its
// destination: the path the failure cut.
func prePath(t *testing.T, w *sim.World, c *sim.Case) []routing.HopRecord {
	t.Helper()
	nodes, ok := w.Tables.PathNodes(c.Initiator, c.Dst)
	links, _ := w.Tables.PathLinks(c.Initiator, c.Dst)
	if !ok {
		t.Fatal("no pre-failure path")
	}
	recs := make([]routing.HopRecord, len(links))
	for i, l := range links {
		recs[i] = routing.HopRecord{From: nodes[i], To: nodes[i+1], Link: l}
	}
	return recs
}

func TestMutationsResult(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	a := gatherResult(t, w)
	c, recs := a.c, a.r.Walks[0].Records
	clone := func() []routing.HopRecord { return append([]routing.HopRecord(nil), recs...) }

	t.Run("clean-passes", func(t *testing.T) {
		if vs := k.checkResult(c, sim.SchemeSpread, a.r); len(vs) > 0 {
			t.Fatalf("clean result flagged: %v", vs[0])
		}
	})
	t.Run("scheme/walk-contiguous", func(t *testing.T) {
		m := clone()
		m[1].From = m[1].To
		requireCheck(t, k.checkResult(c, "m", withRecords(a.r, m)), "scheme/walk-contiguous")
	})
	t.Run("scheme/walk-dead-link", func(t *testing.T) {
		m := append([]routing.HopRecord{
			{From: c.Initiator, To: c.NextHop, Link: c.Trigger},
			{From: c.NextHop, To: c.Initiator, Link: c.Trigger},
		}, recs...)
		requireCheck(t, k.checkResult(c, "m", withRecords(a.r, m)), "scheme/walk-dead-link")
	})
	t.Run("scheme/delivery-wrong-dst", func(t *testing.T) {
		requireCheck(t, k.checkResult(c, "m", withRecords(a.r, clone()[:len(recs)-1])), "scheme/delivery-wrong-dst")
	})
	t.Run("scheme/grade-undelivered", func(t *testing.T) {
		m := a.r
		m.Delivered = false
		requireCheck(t, k.checkResult(c, "m", m), "scheme/grade-undelivered")
	})
	t.Run("scheme/grade-stretch", func(t *testing.T) {
		m := a.r
		m.Stretch = 0.5
		requireCheck(t, k.checkResult(c, "m", m), "scheme/grade-stretch")
	})
	t.Run("scheme/grade-optimal", func(t *testing.T) {
		// Bounce off the destination over a live link and back: still
		// delivered, now longer than the true shortest path.
		last := recs[len(recs)-1]
		m := withRecords(a.r, append(clone(),
			routing.HopRecord{From: c.Dst, To: last.From, Link: last.Link},
			routing.HopRecord{From: last.From, To: c.Dst, Link: last.Link}))
		m.Optimal, m.Stretch = true, 1
		requireCheck(t, k.checkResult(c, "m", m), "scheme/grade-optimal")
	})
	t.Run("truth/delivery-beats-shortest", func(t *testing.T) {
		// The cut pre-failure path is cheaper than any surviving one.
		requireCheck(t, k.checkResult(c, "m", withRecords(a.r, prePath(t, w, c))), "truth/delivery-beats-shortest")
	})
	t.Run("truth/delivered-irrecoverable", func(t *testing.T) {
		m := withRecords(sim.Result{Delivered: true}, prePath(t, w, a.irr))
		requireCheck(t, k.checkResult(a.irr, "m", m), "truth/delivered-irrecoverable")
	})
}
