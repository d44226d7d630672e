package scheme_test

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/routing"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// This file is the whole of a new scheme: registering it is enough for
// the sweep engine, the serving layer and the invariant oracle to run
// it, and the tests below prove each one does, with no edit elsewhere.

const toyName = "toy-lfa"

func init() { sim.RegisterScheme(lfa{}) }

// lfa is a precomputed emergency next hop in the style of
// arXiv:1204.2465 / arXiv:1108.1426: a loop-free alternate. The
// initiator hands the packet to the neighbor n whose own converged
// path to the destination avoids it (dist(n,d) < dist(n,s) +
// dist(s,d)) and is cheapest through n; from there the packet follows
// the pre-failure tables until it is delivered or meets a dead link.
type lfa struct{}

func (lfa) Name() string             { return toyName }
func (lfa) Prepare(*sim.World) error { return nil }

func (lfa) Run(w *sim.World, c *sim.Case) (sim.Result, error) {
	var res sim.Result
	g, t := w.Topo.G, w.Tables
	sd, _ := t.Dist(c.Initiator, c.Dst)
	var alt graph.Halfedge
	best := math.Inf(1)
	for _, he := range g.Adj(c.Initiator) {
		nd, ok := t.Dist(he.Neighbor, c.Dst)
		ns, _ := t.Dist(he.Neighbor, c.Initiator)
		if cost := g.Link(he.Link).CostFrom(c.Initiator) + nd; he.Link != c.Trigger && ok && nd < ns+sd && cost < best {
			alt, best = he, cost
		}
	}
	if math.IsInf(best, 1) {
		return res, nil // no alternate: dropped at the initiator
	}
	var walk routing.Walk
	v, next, link, cost := c.Initiator, alt.Neighbor, alt.Link, 0.0
	for ok := true; ok && v != c.Dst && !c.LV.NeighborUnreachable(v, link); next, link, ok = t.NextHop(v, c.Dst) {
		walk.Append(routing.HopRecord{From: v, To: next, Link: link})
		cost += g.Link(link).CostFrom(v)
		v = next
	}
	if len(walk.Records) > 0 {
		res.Walks = []routing.Walk{walk}
	}
	if res.Delivered = v == c.Dst; res.Delivered {
		res.Optimal, res.Stretch = sim.Grade(w, c, nil, cost)
	}
	return res, nil
}

// toyCases draws recovery cases on w, each bound to its scenario's
// State as a served query's case is.
func toyCases(t *testing.T, w *sim.World, n int) []*sim.Case {
	t.Helper()
	var out []*sim.Case
	for _, c := range testCases(t, w, n) {
		bound, err := sim.CaseAt(w.Converged(c.Scenario), c.Initiator, c.Dst)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bound)
	}
	return out
}

// TestToySchemeSwept: a congestion sweep names the toy like any other
// scheme, and Spec.Check runs the oracle over every case it replays.
func TestToySchemeSwept(t *testing.T) {
	w, err := sim.NewWorld("AS1239", testSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{BaseSeed: testSeed, Topologies: []string{"AS1239"},
		UtilSchemes: []string{toyName}, UtilPairs: 60, UtilScenarios: 2, Check: true}
	res, err := (&sweep.Engine{Spec: spec, Worlds: map[string]*sim.World{"AS1239": w}}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	us, err := res.Utils()
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 1 || us[0].Scheme != toyName || us[0].Flows.Offered == 0 {
		t.Fatalf("util results %+v, want one offered %s shard", us, toyName)
	}
}

// TestToySchemeServed: the serving layer answers the toy in the shape
// it answers rtr in — a case record — with the scheme's own grade under
// its name, equal to a direct run, and checks it under Config.Check.
func TestToySchemeServed(t *testing.T) {
	w, err := sim.NewWorld("AS1239", testSeed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(serve.Config{Worlds: map[string]*sim.World{"AS1239": w}, CacheEntries: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, c := range toyCases(t, w, 24) {
		q := serve.Query{Topo: "AS1239", Failure: c.Scenario.Desc(), Src: int(c.Initiator), Dst: int(c.Dst), Scheme: toyName}
		resp, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		q.Scheme = sim.SchemeRTR
		rtr, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Disposition != serve.DispRecovery || resp.Case == nil || rtr.Case == nil {
			t.Fatalf("%s answered %q with case %v", toyName, resp.Disposition, resp.Case)
		}
		want, err := lfa{}.Run(w, c)
		if err != nil {
			t.Fatal(err)
		}
		want.Walks = nil
		if got := resp.Case.Schemes[toyName]; !reflect.DeepEqual(got, want) {
			t.Fatalf("served %+v, direct run %+v", got, want)
		}
		body, _ := json.Marshal(resp)
		if !strings.Contains(string(body), `"case":{"recoverable":`) || !strings.Contains(string(body), `"schemes":{"`+toyName+`":{`) {
			t.Fatalf("body shape: %s", body)
		}
		if want.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("the toy delivered nothing; test is vacuous")
	}
}

// lying delivers every packet it drops: the oracle, which has never
// heard of either scheme, must catch it.
type lying struct{ lfa }

func (l lying) Run(w *sim.World, c *sim.Case) (sim.Result, error) {
	r, err := l.lfa.Run(w, c)
	r.Delivered = true
	return r, err
}

// TestToySchemeChecked: the oracle checks a registered scheme it knows
// nothing about — every toy case passes, and a toy that lies about
// delivery fails.
func TestToySchemeChecked(t *testing.T) {
	w, err := sim.NewWorld("AS1239", testSeed)
	if err != nil {
		t.Fatal(err)
	}
	set, err := sim.SchemeSet(toyName)
	if err != nil {
		t.Fatal(err)
	}
	k := invariant.New(w)
	var rt core.Route
	caught := 0
	for _, c := range toyCases(t, w, 48) {
		if vs := k.Check(sim.RunCase(w, c, set, &rt)); len(vs) > 0 {
			t.Fatalf("toy case: %v", vs[0])
		}
		if vs := k.Check(sim.RunCase(w, c, []sim.Scheme{lying{}}, &rt)); len(vs) > 0 {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("no lie caught; every toy case delivered, so the test is vacuous")
	}
}
