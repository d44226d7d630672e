package invariant

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/seed"
	"repro/internal/sim"
)

// TestCollectFailedGate pins the rtr/collect-failed rule over its three
// inputs: an outcome RTR's error stopped fires it only for an error
// other than ErrNoLiveNeighbor on a recoverable case whose failure is
// one cluster.
func TestCollectFailedGate(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	var single, multi *failure.Scenario
	g := failure.MultiDiskGen{K: 3, Min: 80, Max: 160, Disjoint: true}
	for trial := int64(0); trial < 200 && (single == nil || multi == nil); trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(61, "collect-gate") + trial))
		if sc := failure.Default().Generate(w.Topo, rng); single == nil && len(sc.Clusters()) == 1 {
			single = sc
		}
		if sc := g.Generate(w.Topo, rng); multi == nil && len(sc.Clusters()) > 1 {
			multi = sc
		}
	}
	if single == nil || multi == nil {
		t.Fatalf("could not draw both shapes: single=%v multi=%v", single != nil, multi != nil)
	}
	other := errors.New("collect: walk did not close")
	for _, sc := range []*failure.Scenario{single, multi} {
		for _, recoverable := range []bool{true, false} {
			for _, err := range []error{core.ErrNoLiveNeighbor, other} {
				c := &sim.Case{Scenario: sc, Recoverable: recoverable}
				want := sc == single && recoverable && err == other
				vs := k.Check(sim.Outcome{Case: c, Ran: sim.PaperSchemes()[:1], Err: err})
				if got := hasCheck(vs, "rtr/collect-failed"); got != want || len(vs) > 1 {
					t.Errorf("clusters=%d recoverable=%v err=%q: violations %v, want rtr/collect-failed=%v",
						len(sc.Clusters()), recoverable, err, vs, want)
				}
			}
		}
	}
}

// TestClassifyPerimeterSingleDisk: under the paper's model every case
// has at most one cluster, so the classifier reports nothing.
func TestClassifyPerimeterSingleDisk(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	var total PerimeterReport
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(51, "perim-single") + int64(trial)))
		sc := failure.Default().Generate(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		total.Add(k.ClassifyPerimeter(sim.RunAllN(w, append(rec, irr...), 1)))
	}
	if total.MultiCluster != 0 {
		t.Errorf("single-disk scenarios produced %d multi-cluster cases", total.MultiCluster)
	}
	if total.MaxClusters > 1 {
		t.Errorf("single-disk MaxClusters = %d", total.MaxClusters)
	}
}

// TestClassifyPerimeterMultiDisk: the classifier's categories
// partition the multi-cluster cases exactly, and its totals over
// disjoint three-disk scenarios are pinned, so a change to any count
// shows.
func TestClassifyPerimeterMultiDisk(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	g := failure.MultiDiskGen{K: 3, Min: 80, Max: 160, Disjoint: true}
	var total PerimeterReport
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(53, "perim-multi") + int64(trial)))
		sc := g.Generate(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		r := k.ClassifyPerimeter(sim.RunAllN(w, append(rec, irr...), 1))
		if got := r.CollectFailed + r.NoLiveNeighbor + r.AllSeen + r.WalkMissed; got != r.MultiCluster {
			t.Fatalf("categories sum to %d, MultiCluster is %d (%s)", got, r.MultiCluster, r)
		}
		if got := r.MissBenign + r.DropUnseen + r.DropSeen; got != r.WalkMissed {
			t.Fatalf("miss outcomes sum to %d, WalkMissed is %d (%s)", got, r.WalkMissed, r)
		}
		if r.WalkMissed > 0 && r.ClustersMissed < r.WalkMissed {
			t.Fatalf("%d missed cases but only %d missed clusters", r.WalkMissed, r.ClustersMissed)
		}
		total.Add(r)
	}
	want := PerimeterReport{Cases: 3666, MultiCluster: 1381, MaxClusters: 2, NoLiveNeighbor: 612, AllSeen: 715,
		WalkMissed: 54, ClustersMissed: 54, MissBenign: 38, DropUnseen: 1, DropSeen: 15}
	if total != want {
		t.Fatalf("AS1239 disks:k=3,disjoint:\n got %s\nwant %s", total, want)
	}
}

// TestMultiPerimeterProfileGatesCollectFailed: the oracle sweep over a
// multi-perimeter generator must be clean — collect failures on a
// failure of several clusters are classified, not reported as
// invariant breaches.
func TestMultiPerimeterProfileGatesCollectFailed(t *testing.T) {
	w := worldFor(t, "AS1239")
	g := failure.MultiDiskGen{K: 3, Min: 80, Max: 160, Disjoint: true}
	k := New(w)
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(59, "perim-gate") + int64(trial)))
		sc := g.Generate(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		if err := checkAll(k, append(rec, irr...)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
