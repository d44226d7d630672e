package mrc

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// TestRouteGoalMatchesTrees is the contract test for MRC's goal-engine
// route path: a goal-directed MRC (no precomputed tree matrix, every
// Route answered on demand by a reverse A* over the configuration's
// isolation overlay) must reproduce the tree-backed Route verbatim —
// same nodes, same links, same ok — for every configuration, source,
// and destination, with and without an excluded first hop.
func TestRouteGoalMatchesTrees(t *testing.T) {
	for _, as := range []string{"AS1239", "AS3320"} {
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			topo := topology.GenerateAS(as, 3)
			tables := routing.ComputeTables(topo)
			trees, err := NewWarmPhase2(topo, 0, tables, spt.EngineDijkstra, nil)
			if err != nil {
				t.Fatal(err)
			}
			const eng = spt.EngineALT
			heur := spt.NewALT(topo.G, 0, nil)
			goal, err := NewWarmPhase2(topo, 0, tables, eng, heur)
			if err != nil {
				t.Fatal(err)
			}
			if goal.Phase2() != eng {
				t.Fatalf("Phase2() = %v, want %v", goal.Phase2(), eng)
			}
			if trees.Configs() != goal.Configs() {
				t.Fatalf("config counts differ: %d vs %d", trees.Configs(), goal.Configs())
			}
			n := topo.G.NumNodes()
			compared := 0
			for c := 0; c < trees.Configs(); c++ {
				for s := 0; s < n; s++ {
					src := graph.NodeID(s)
					// Stride destinations to keep the full sweep fast
					// while still hitting backbone and isolated sources
					// in every configuration.
					for d := s % 3; d < n; d += 3 {
						dst := graph.NodeID(d)
						wantN, wantL, wantOK := trees.Route(c, src, dst, 0, false)
						gotN, gotL, gotOK := goal.Route(c, src, dst, 0, false)
						if wantOK != gotOK || !equalNodes(wantN, gotN) || !equalLinks(wantL, gotL) {
							t.Fatalf("%s Route(c=%d, %d->%d) differs:\ntrees: %v %v %v\ngoal:  %v %v %v",
								eng, c, src, dst, wantN, wantL, wantOK, gotN, gotL, gotOK)
						}
						compared++
						if wantOK && len(wantL) > 0 {
							// Exclude the canonical first hop: both
							// implementations must agree on the outcome.
							ex := wantL[0]
							wantN, wantL, wantOK = trees.Route(c, src, dst, ex, true)
							gotN, gotL, gotOK = goal.Route(c, src, dst, ex, true)
							if wantOK != gotOK || !equalNodes(wantN, gotN) || !equalLinks(wantL, gotL) {
								t.Fatalf("%s Route(c=%d, %d->%d, exclude=%d) differs:\ntrees: %v %v %v\ngoal:  %v %v %v",
									eng, c, src, dst, ex, wantN, wantL, wantOK, gotN, gotL, gotOK)
							}
						}
					}
				}
			}
			if compared == 0 {
				t.Fatal("no routes compared")
			}
			t.Logf("%s: %d (config, src, dst) routes identical under %s", as, compared, eng)
		})
	}
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

func equalLinks(a, b []graph.LinkID) bool {
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
