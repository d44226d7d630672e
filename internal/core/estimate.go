package core

import (
	"repro/internal/geom"
)

// EstimateArea estimates the failure region from everything the
// session knows: the links of its pruned view (collected, the
// initiator's own unreachable ones, and seeded). Every known-failed
// link is cut by the failure area somewhere along its segment; the
// estimator samples each segment's midpoint, in ascending link order,
// and returns the smallest disk enclosing the samples (Welzl, which is
// order-sensitive in floating point), in the spirit of the authors'
// companion work on localizing large-scale failures with probes [16].
//
// The estimate is diagnostic: RTR's recovery itself never prunes by
// geometry (doing so could remove live links and break the Theorem 2
// optimality guarantee). ok is false when the session knows no failed
// links yet.
func (s *Session) EstimateArea() (geom.Disk, bool) {
	known := s.prunedView().DownLinks()
	if len(known) == 0 {
		return geom.Disk{}, false
	}
	pts := make([]geom.Point, len(known))
	for i, id := range known {
		pts[i] = s.r.topo.LinkSegment(id).Midpoint()
	}
	return geom.SmallestEnclosingDisk(pts), true
}
