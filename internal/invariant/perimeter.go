package invariant

import (
	"fmt"

	"repro/internal/graph"
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

// ClassifyPerimeter classifies how every outcome's case interacts with
// RTR's single-perimeter walk assumption. The outcomes are runs that
// include rtr (RunAllN's, or RunCase over a list naming it). Cases
// whose scenario has at most one failure cluster satisfy the assumption
// and only count toward Cases; multi-cluster cases are classified from
// the RTR answer the outcome holds: whether the walk covered every
// cluster and, if not, whether the miss changed the outcome.
func (k *Checker) ClassifyPerimeter(outs []sim.Outcome) PerimeterReport {
	var r PerimeterReport
	for i := range outs {
		classifyPerimeterCase(outs[i].Case, &outs[i].RTR, &r)
	}
	return r
}

func classifyPerimeterCase(c *sim.Case, rtr *sim.RTRResult, r *PerimeterReport) {
	r.Cases++
	clusters := c.Scenario.Clusters()
	if len(clusters) > r.MaxClusters {
		r.MaxClusters = len(clusters)
	}
	if len(clusters) <= 1 {
		return // single perimeter: the walk's assumption holds
	}
	r.MultiCluster++
	switch {
	case rtr.NoLiveNeighbor:
		r.NoLiveNeighbor++
		return
	case rtr.Session == nil: // the collection failed: the outcome's Err
		r.CollectFailed++
		return
	}

	// A cluster is "seen" when at least one of its links made it into
	// the initiator's pruned view: collected by the walk (Rule 2) or
	// observed directly by the initiator.
	pruned := newLinkSet(rtr.Session.Collected().Header.FailedLinks, c.LV.UnreachableLinks(c.Initiator))
	clusterOf := make(map[graph.LinkID]int)
	for ci, cl := range clusters {
		for _, id := range cl {
			clusterOf[id] = ci
		}
	}
	seen := make([]bool, len(clusters))
	for id := range pruned {
		if ci, ok := clusterOf[id]; ok {
			seen[ci] = true
		}
	}
	missed := 0
	for _, s := range seen {
		if !s {
			missed++
		}
	}
	if missed == 0 {
		r.AllSeen++
		return
	}
	r.WalkMissed++
	r.ClustersMissed += missed

	switch ci, known := clusterOf[rtr.DropLink]; {
	case rtr.IdentifiedUnreachable:
		// Discarding is always truth-correct: the pruned view keeps a
		// superset of the true post-failure edges, so no pruned-view
		// path implies no true path.
		r.MissBenign++
	case rtr.Recovered:
		r.MissBenign++ // Theorem 2: a delivered recovery path is optimal
	case known && !seen[ci]:
		r.DropUnseen++
	default:
		r.DropSeen++
	}
}
