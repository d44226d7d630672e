package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/igp"
	"repro/internal/sim"
	"repro/internal/spt"
)

// TestPhase2EnginesIdenticalFates checks that the phase-2 engine
// selector is invisible at the packet level: a discrete-event run over
// a world built with a goal-directed engine produces the identical
// per-packet fate list (delivery, hops, timestamps, recovery marks) as
// the default full-tree world. The engine threads through the
// *core.RTR handle netsim holds, so this exercises the whole stack.
func TestPhase2EnginesIdenticalFates(t *testing.T) {
	const as = "AS1239"
	var base *Result
	var baseEng spt.Engine
	for _, eng := range []spt.Engine{spt.EngineDijkstra, spt.EngineALT} {
		w, err := sim.NewWorldPhase2(as, 1, eng)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		sc := failure.RandomScenario(w.Topo, rng)
		for !sc.HasFailures() {
			sc = failure.RandomScenario(w.Topo, rng)
		}
		n := w.Topo.G.NumNodes()
		var flows []Flow
		for i := 0; i < 8; i++ {
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			if src == dst || sc.NodeDown(src) {
				continue
			}
			flows = append(flows, Flow{Src: src, Dst: dst, Interval: 25 * time.Millisecond})
		}
		if len(flows) == 0 {
			t.Fatal("no flows drawn")
		}
		cfg := Config{Flows: flows, Horizon: 600 * time.Millisecond, Timers: igp.TunedTimers()}
		res := New(w.Converged(sc), cfg).Run()
		if len(res.Fates) == 0 {
			t.Fatal("no packets sent")
		}
		if base == nil {
			base, baseEng = res, eng
			continue
		}
		if !reflect.DeepEqual(res.Fates, base.Fates) {
			t.Errorf("packet fates differ between %v and %v", baseEng, eng)
		}
	}
}
