package scheme

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// The congestion-aware scheme's tuning: spreadK caps the candidate
// recovery paths per destination — the primary (RTR's optimal path in
// the pruned view) plus up to spreadK-1 alternatives that each avoid
// one primary link — and candidates costing more than spreadSlack
// times the primary are discarded.
const (
	spreadK     = 4
	spreadSlack = 1.5
)

// spreadScheme is the congestion-aware recovery scheme: RTR's shared session
// (same phase-1 collection, same pruned view) generates a
// small set of near-shortest recovery candidates — the primary path
// plus alternatives that each detour around one primary link — and the
// initiator picks one by hashing the flow identity, in the spirit of
// the randomized low-congestion next-hop selection of arXiv:2009.01497.
// Different destinations behind the same failure thus fan out across
// distinct candidates instead of all funneling onto the single
// shortest path, trading bounded stretch (spreadSlack) for a
// lower post-recovery peak link load. The hash makes the choice a pure
// function of (initiator, destination, trigger), so sweeps and the
// serving layer stay deterministic.
type spreadScheme struct {
	k int // candidate cap: spreadK when registered
}

func (spreadScheme) Name() string             { return NameSpread }
func (spreadScheme) Prepare(*sim.World) error { return nil }

func (s spreadScheme) Run(w *sim.World, c *sim.Case) (Result, error) {
	var res Result
	st := w.StateOf(c)
	se := st.Session(c.Initiator, c.Trigger)
	switch {
	case se.Err != nil:
		return res, se.Err
	case se.NoLive:
		res.NoLiveNeighbor = true
		return res, nil
	}
	// The session is shared and read-only; the detour computations
	// below are this flow's own and are counted here.
	sess := se.Sess
	res.SPCalcs = sess.SPCalcs()

	var primary core.Route
	if !sess.RecoveryPathInto(&primary, c.Dst) {
		// Early discard: the pruned view has no path, so only the
		// collection walk touched the wire.
		return res, nil
	}

	candidates := []core.Route{primary}
	budget := spreadSlack * primary.Cost
	for _, avoid := range spreadAvoidLinks(primary.Links, s.k-1) {
		var alt core.Route
		res.SPCalcs++
		if !sess.RecoveryPathAvoidingInto(&alt, c.Dst, []graph.LinkID{avoid}) {
			continue
		}
		if alt.Cost > budget || sameLinks(alt.Links, primary.Links) ||
			duplicateRoute(candidates[1:], alt.Links) {
			continue
		}
		candidates = append(candidates, alt)
	}
	chosen := candidates[flowHash(c.Initiator, c.Dst, c.Trigger)%uint64(len(candidates))]

	fwd := sess.ForwardSourceRouted(chosen)
	res.Walks = walks(fwd.Walk)
	if !fwd.Delivered {
		return res, nil
	}
	res.Delivered = true
	opt, reachable := sim.TruthCost(w, c, st.Truth(c.Initiator))
	if reachable && sim.CostEqual(chosen.Cost, opt) {
		res.Optimal = true
		res.Stretch = 1
	} else if reachable && opt > 0 {
		res.Stretch = chosen.Cost / opt
	}
	return res, nil
}

// spreadAvoidLinks picks up to n links evenly spaced along the primary
// path. Early links sit in the initiator's funnel — where every
// recovery path behind one failure concentrates — so the spacing
// always includes the first hop and then samples the rest.
func spreadAvoidLinks(links []graph.LinkID, n int) []graph.LinkID {
	if n <= 0 || len(links) == 0 {
		return nil
	}
	if len(links) <= n {
		return links
	}
	out := make([]graph.LinkID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, links[i*len(links)/n])
	}
	return out
}

func sameLinks(a, b []graph.LinkID) bool {
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

func duplicateRoute(prev []core.Route, links []graph.LinkID) bool {
	for _, p := range prev {
		if sameLinks(p.Links, links) {
			return true
		}
	}
	return false
}

// flowHash is FNV-1a over the flow identity — deterministic, spread
// uniformly enough that destinations behind one failure fan out across
// the candidate set.
func flowHash(init, dst graph.NodeID, trigger graph.LinkID) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [3]uint32{uint32(init), uint32(dst), uint32(trigger)} {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(v>>s) & 0xff
			h *= prime
		}
	}
	return h
}
