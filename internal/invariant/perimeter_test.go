package invariant

import (
	"errors"
	"fmt"
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

// PerimeterReport counts, per classified case, how RTR's
// single-perimeter assumption interacts with a failure scenario's
// actual cluster structure. It quantifies — rather than hides — where
// the phase-1 walk breaks down on disconnected failure regions.
type PerimeterReport struct {
	// Cases is the number of cases classified.
	Cases int
	// MultiCluster counts cases whose ground-truth failure splits into
	// more than one failure cluster (see failure.Scenario.Clusters).
	MultiCluster int
	// MaxClusters is the largest cluster count seen in any case.
	MaxClusters int
	// CollectFailed counts multi-cluster cases where phase-1
	// collection failed outright (excluding the legitimate
	// no-live-neighbor outcome).
	CollectFailed int
	// NoLiveNeighbor counts multi-cluster cases where the initiator
	// had no live neighbor at all (fully cut off — legitimate under
	// any model). MultiCluster = CollectFailed + NoLiveNeighbor +
	// AllSeen + WalkMissed.
	NoLiveNeighbor int
	// AllSeen counts multi-cluster cases where the walk plus the
	// initiator's own observations still covered every cluster (at
	// least one pruned link per cluster) — RTR had complete
	// cluster-level information despite the disconnection.
	AllSeen int
	// WalkMissed counts multi-cluster cases where at least one cluster
	// contributed nothing to the pruned view. It splits exactly into
	// MissBenign + DropUnseen + DropSeen.
	WalkMissed int
	// ClustersMissed is the total number of unseen clusters across all
	// WalkMissed cases.
	ClustersMissed int
	// MissBenign counts WalkMissed cases whose outcome was unaffected:
	// the packet was delivered anyway, or the destination was
	// discarded (a discard is always truth-correct — the pruned view
	// has a superset of the true post-failure edges).
	MissBenign int
	// DropUnseen counts WalkMissed cases where the recovery packet was
	// dropped on a link belonging to a cluster the walk never saw —
	// the concrete failure mode of the single-perimeter assumption.
	DropUnseen int
	// DropSeen counts WalkMissed cases dropped on a link of a cluster
	// the walk did partially see (incomplete collection within a seen
	// cluster, aggravated by the disconnection).
	DropSeen int
}

// Add accumulates o into r.
func (r *PerimeterReport) Add(o PerimeterReport) {
	r.Cases += o.Cases
	r.MultiCluster += o.MultiCluster
	if o.MaxClusters > r.MaxClusters {
		r.MaxClusters = o.MaxClusters
	}
	r.CollectFailed += o.CollectFailed
	r.NoLiveNeighbor += o.NoLiveNeighbor
	r.AllSeen += o.AllSeen
	r.WalkMissed += o.WalkMissed
	r.ClustersMissed += o.ClustersMissed
	r.MissBenign += o.MissBenign
	r.DropUnseen += o.DropUnseen
	r.DropSeen += o.DropSeen
}

// String implements fmt.Stringer with a one-line summary.
func (r PerimeterReport) String() string {
	return fmt.Sprintf(
		"perimeter: %d cases, %d multi-cluster (max %d clusters): %d collect-failed, %d cut-off, %d all-seen, %d missed (%d clusters unseen: %d benign, %d dropped-on-unseen, %d dropped-on-seen)",
		r.Cases, r.MultiCluster, r.MaxClusters, r.CollectFailed, r.NoLiveNeighbor, r.AllSeen,
		r.WalkMissed, r.ClustersMissed, r.MissBenign, r.DropUnseen, r.DropSeen)
}

// ClassifyPerimeter tallies how every outcome's case meets RTR's
// single-perimeter walk assumption, from the explanation (sim.Explain)
// of the RTR answer it holds; outs must include rtr (RunAllN's, or
// RunCase over a list naming it). Cases whose failure has at most one
// cluster satisfy the assumption and only count toward Cases.
func (k *Checker) ClassifyPerimeter(outs []sim.Outcome) PerimeterReport {
	var r PerimeterReport
	for i := range outs {
		o := &outs[i]
		e, ok := sim.Explain(o)
		r.Cases++
		r.MaxClusters = max(r.MaxClusters, e.Clusters)
		if e.Clusters <= 1 {
			continue
		}
		r.MultiCluster++
		switch {
		case o.RTR.NoLiveNeighbor:
			r.NoLiveNeighbor++
		case !ok: // the collection failed: the outcome's Err
			r.CollectFailed++
		case e.Unseen == 0:
			r.AllSeen++
		default:
			r.WalkMissed++
			r.ClustersMissed += e.Unseen
			switch {
			case !e.Dropped: // delivered or discarded: see MissBenign
				r.MissBenign++
			case e.DropCluster >= 0 && !e.DropSeen:
				r.DropUnseen++
			default:
				r.DropSeen++
			}
		}
	}
	return r
}
