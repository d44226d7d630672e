package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/fcp"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// TestRTRvsFCPShape checks the paper's central comparative claim on
// shared test cases: RTR's optimal recovery rate exceeds FCP's, and
// RTR uses exactly one shortest-path calculation versus several for
// FCP.
func TestRTRvsFCPShape(t *testing.T) {
	for _, as := range []string{"AS209", "AS1239", "AS3549", "AS7018"} {
		topo := topology.GenerateAS(as, 11)
		r := New(topo, nil)
		f := fcp.New(topo, r.CleanTree)
		tables := routing.ComputeTables(topo)
		rng := rand.New(rand.NewSource(1))
		n := topo.G.NumNodes()
		cases, rtrOpt, fcpOpt, fcpCalcs := 0, 0, 0, 0
		for cases < 400 {
			sc := failure.RandomScenario(topo, rng)
			lv := routing.NewLocalView(topo, sc)
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			if src == dst {
				continue
			}
			outcome, initiator, _ := routing.TraceDefault(tables, lv, src, dst)
			if outcome != routing.DefaultBlocked || !topo.G.Connected(initiator, dst, sc) {
				continue
			}
			cases++
			truth := spt.Compute(topo.G, initiator, sc)
			opt, _ := truth.CostTo(dst)

			sess, _ := r.NewSession(lv, initiator)
			_, trigger, _ := tables.NextHop(initiator, dst)
			rt, fwd, ok, err := recoverPath(sess, trigger, dst)
			if err != nil && !errors.Is(err, ErrNoLiveNeighbor) {
				t.Fatal(err)
			}
			if err == nil && ok && fwd.Delivered && rt.Cost == opt {
				rtrOpt++
			}

			fres, err := f.Recover(lv, initiator, dst)
			if err != nil {
				t.Fatal(err)
			}
			fcpCalcs += fres.SPCalcs
			if fres.Delivered && float64(fres.Walk.Hops()) == opt {
				fcpOpt++
			}
		}
		t.Logf("%s: RTR optimal %.1f%% | FCP optimal %.1f%% | FCP avg SP calcs %.2f",
			as, 100*float64(rtrOpt)/float64(cases), 100*float64(fcpOpt)/float64(cases),
			float64(fcpCalcs)/float64(cases))
	}
}
