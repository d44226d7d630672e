package igp

import (
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/topology"
)

func TestConvergePaperExample(t *testing.T) {
	topo := topology.PaperExample()
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	timers := TunedTimers()
	c := Converge(sc, timers)

	// Detectors are exactly the live routers with an unreachable
	// neighbor: v5, v9, v14, v11 (around v10) and v6, v4 (cut links).
	want := map[graph.NodeID]bool{
		topology.PaperNode(4):  true,
		topology.PaperNode(5):  true,
		topology.PaperNode(6):  true,
		topology.PaperNode(9):  true,
		topology.PaperNode(11): true,
		topology.PaperNode(14): true,
	}
	if len(c.Detectors) != len(want) {
		t.Fatalf("detectors = %v, want %d of them", c.Detectors, len(want))
	}
	for _, d := range c.Detectors {
		if !want[d] {
			t.Errorf("unexpected detector v%d", d+1)
		}
	}

	// Every live router converges, after detection+SPF at minimum.
	minTime := timers.Detection + timers.SPFDelay + timers.SPFCompute
	for v := 0; v < topo.G.NumNodes(); v++ {
		id := graph.NodeID(v)
		if sc.NodeDown(id) {
			if c.RouterTime[v] != 0 {
				t.Errorf("failed router v%d has a convergence time", v+1)
			}
			continue
		}
		if c.RouterTime[v] < minTime {
			t.Errorf("router v%d converged in %v, below the floor %v", v+1, c.RouterTime[v], minTime)
		}
	}
	if c.Total < minTime {
		t.Errorf("total convergence %v below floor", c.Total)
	}
	// A detector itself converges fastest among same-distance peers;
	// total is bounded by floor + diameter*floodPerHop.
	maxTime := minTime + time.Duration(topo.G.NumNodes())*timers.FloodPerHop
	if c.Total > maxTime {
		t.Errorf("total convergence %v exceeds bound %v", c.Total, maxTime)
	}
}

func TestConvergeNoFailure(t *testing.T) {
	topo := topology.PaperExample()
	sc := failure.NewScenario(topo) // nothing failed
	c := Converge(sc, TunedTimers())
	if len(c.Detectors) != 0 || c.Total != 0 {
		t.Errorf("no failure must mean no convergence activity: %+v", c)
	}
}

func TestConvergeClassicSlowerThanTuned(t *testing.T) {
	topo := topology.GenerateAS("AS209", 1)
	// Aim the failure at the first router so it definitely hits.
	sc := failure.NewScenario(topo, geom.Disk{Center: topo.Coords[0], Radius: 150})
	if !sc.HasFailures() {
		t.Fatal("the disk around a router must fail something")
	}
	classic := Converge(sc, ClassicTimers())
	tuned := Converge(sc, TunedTimers())
	if classic.Total <= tuned.Total {
		t.Errorf("classic (%v) must converge slower than tuned (%v)", classic.Total, tuned.Total)
	}
	if classic.Total < 5*time.Second {
		t.Errorf("classic convergence %v implausibly fast", classic.Total)
	}
	if tuned.Total > 2*time.Second {
		t.Errorf("tuned convergence %v implausibly slow", tuned.Total)
	}
}

func TestConvergeMonotoneWithDistance(t *testing.T) {
	// A router farther (in hops) from every detector converges no
	// earlier than one of its neighbors on the path toward the
	// detectors.
	topo := topology.PaperExample()
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	c := Converge(sc, TunedTimers())
	// v18 (far corner) must converge no earlier than v16 (its neighbor
	// closer to the failure).
	if c.RouterTime[topology.PaperNode(18)] < c.RouterTime[topology.PaperNode(16)] {
		t.Errorf("v18 (%v) converged before v16 (%v)",
			c.RouterTime[topology.PaperNode(18)], c.RouterTime[topology.PaperNode(16)])
	}
}

func TestConvergePartition(t *testing.T) {
	// Cut a leaf off entirely: the leaf receives no LSA and keeps
	// stale tables (RouterTime 0), and the rest still converges.
	topo := topology.GenerateAS("AS7018", 3)
	// Find a leaf and fail its only link.
	var leaf graph.NodeID
	found := false
	for v := 0; v < topo.G.NumNodes() && !found; v++ {
		if topo.G.Degree(graph.NodeID(v)) == 1 {
			leaf = graph.NodeID(v)
			found = true
		}
	}
	if !found {
		t.Skip("no leaf in this topology")
	}
	sc := failure.NewLinkSet(topo, topo.G.Adj(leaf)[0].Link)
	c := Converge(sc, TunedTimers())
	if c.RouterTime[leaf] != 0 {
		// The leaf IS a detector of its own link failure, so it
		// actually converges by itself: detection + SPF.
		tm := TunedTimers()
		if c.RouterTime[leaf] != tm.Detection+tm.SPFDelay+tm.SPFCompute {
			t.Errorf("cut-off leaf should converge on its own detection, got %v", c.RouterTime[leaf])
		}
	}
	if c.Total == 0 {
		t.Error("the main partition must converge")
	}
}
