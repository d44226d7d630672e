package invariant

import (
	"fmt"

	"repro/internal/sim"
)

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
