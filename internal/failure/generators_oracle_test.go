// Oracle property suite for the pluggable failure generators. It
// lives in package failure_test because it drives the invariant
// oracle, which (via sim) imports failure.
package failure_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/seed"
	"repro/internal/sim"
	"repro/internal/topology"
)

var (
	worldMu    sync.Mutex
	worldCache = map[string]*sim.World{}
)

func worldFor(t testing.TB, name string) *sim.World {
	worldMu.Lock()
	defer worldMu.Unlock()
	if w, ok := worldCache[name]; ok {
		return w
	}
	w, err := sim.NewWorld(name, 1)
	if err != nil {
		t.Fatalf("NewWorld(%s): %v", name, err)
	}
	worldCache[name] = w
	return w
}

// TestGenerators is the tentpole property suite: every registered
// generator × every bundled Table II topology × seeded RNG streams.
// For each (generator, topology) pair it checks
//
//   - determinism: the same stream reproduces the same mask;
//   - mask/area consistency: failures are exactly what the scenario's
//     areas (or explicit link sets) imply;
//   - the full invariant oracle: every deduplicated case of every
//     scenario, run as RunAllN runs it, passes Check (a failure of
//     several clusters relaxes only rtr/collect-failed);
//   - perimeter accounting: disconnected-perimeter cases (sim.Explain's
//     cluster count) are counted and logged, and single-region models
//     never produce them.
func TestGenerators(t *testing.T) {
	// The kinds whose every draw is one connected failure region.
	singleRegion := map[string]bool{"disk": true, "cut": true, "link": true}
	scenarios := 4
	maxCases := 250
	names := topology.ASNames()
	if testing.Short() {
		scenarios, maxCases = 2, 80
		names = names[:2]
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := worldFor(t, name)
			for _, g := range failure.AllDefaults() {
				g := g
				t.Run(g.Name(), func(t *testing.T) {
					k := invariant.New(w)
					checked, multi, maxClusters := 0, 0, 0
					for sIdx := 0; sIdx < scenarios && checked < maxCases; sIdx++ {
						base := seed.Derive(1, "genoracle", name, g.Name()) + int64(sIdx)

						sc := g.Generate(w.Topo, rand.New(rand.NewSource(base)))
						again := g.Generate(w.Topo, rand.New(rand.NewSource(base)))
						if !equalIDs(sc.FailedLinks(), again.FailedLinks()) ||
							!equalNodes(sc.FailedNodes(), again.FailedNodes()) {
							t.Fatalf("scenario %d: non-deterministic", sIdx)
						}
						assertConsistent(t, sc)

						// Full oracle sweep over the scenario's cases.
						rec, irr := sim.CasesFromScenario(w, sc)
						cases := append(rec, irr...)
						if len(cases) > maxCases-checked {
							cases = cases[:maxCases-checked]
						}
						checked += len(cases)
						outs := sim.RunAllN(w, cases, 1)
						for i := range outs {
							if vs := k.Check(outs[i]); len(vs) > 0 {
								t.Fatalf("scenario %d: %v (first of %d violations)", sIdx, vs[0], len(vs))
							}
							e, _ := sim.Explain(&outs[i])
							maxClusters = max(maxClusters, e.Clusters)
							if e.Clusters > 1 {
								multi++
							}
						}
					}
					if singleRegion[g.Name()] && multi > 0 {
						t.Fatalf("single-perimeter model produced %d multi-cluster cases", multi)
					}
					if multi > 0 {
						t.Logf("%s/%s: %d of %d cases multi-cluster (max %d clusters)", name, g.Name(), multi, checked, maxClusters)
					}
				})
			}
		})
	}
}

// assertConsistent re-derives the mask from the scenario's shapes and
// link sets: nodes fail iff inside an area; links fail iff
// endpoint-down or area-intersecting, plus (for area-free scenarios)
// the explicit link set.
func assertConsistent(t *testing.T, s *failure.Scenario) {
	t.Helper()
	topo := s.Topo
	areas := s.Shapes()
	for v := 0; v < topo.G.NumNodes(); v++ {
		id := graph.NodeID(v)
		in := false
		for _, a := range areas {
			if a.Contains(topo.Coords[v]) {
				in = true
				break
			}
		}
		if s.NodeDown(id) != in {
			t.Fatalf("node %d: down=%v, areas imply %v", v, s.NodeDown(id), in)
		}
	}
	for i := 0; i < topo.G.NumLinks(); i++ {
		id := graph.LinkID(i)
		l := topo.G.Link(id)
		geometric := s.NodeDown(l.A) || s.NodeDown(l.B)
		if !geometric {
			seg := topo.LinkSegment(id)
			for _, a := range areas {
				if a.IntersectsSegment(seg) {
					geometric = true
					break
				}
			}
		}
		if geometric && !s.LinkDown(id) {
			t.Fatalf("link %v: geometry implies down, mask says up", l)
		}
		if s.LinkDown(id) && !geometric && len(areas) > 0 {
			t.Fatalf("link %v: mask down without geometric cause", l)
		}
	}
}

func equalIDs(a, b []graph.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
