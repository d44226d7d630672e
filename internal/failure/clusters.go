package failure

import (
	"repro/internal/geom"
	"repro/internal/graph"
)

// Clusters partitions the scenario's failed links into connected
// failure clusters. Two failed links belong to the same cluster when
// they share an endpoint, when their segments cross, or when both are
// attached to the same connected component of (geometrically
// overlapping) failure areas. RTR's phase-1 perimeter walk assumes one
// cluster — a single connected failure region with a single outer
// perimeter; scenarios with more than one cluster are exactly the
// shapes where that assumption can break. sim.Explain reports, per RTR
// answer, how many clusters the initiator saw, and the invariant
// layer's perimeter classifier tallies it.
//
// A scenario from a single disk or a single capsule always yields at
// most one cluster: each of its failed links either intersects the
// area or has an endpoint strictly inside it (which implies
// intersection), so every failed link attaches to the one area.
func (s *Scenario) Clusters() [][]graph.LinkID {
	down := s.mask.DownLinks()
	if len(down) == 0 {
		return nil
	}

	// Union-find over the failed links plus one virtual element per
	// failure area (areas first, links after).
	na := len(s.areas)
	uf := newUnionFind(na + len(down))

	// Merge geometrically overlapping areas into area components.
	for i := 0; i < na; i++ {
		for j := i + 1; j < na; j++ {
			if areasOverlap(s.areas[i], s.areas[j]) {
				uf.union(i, j)
			}
		}
	}

	segs := make([]geom.Segment, len(down))
	for li, id := range down {
		segs[li] = s.Topo.LinkSegment(id)
		// Attach each failed link to every area it touches (endpoint
		// inside or segment intersecting).
		l := s.Topo.G.Link(id)
		for ai, a := range s.areas {
			if a.IntersectsSegment(segs[li]) ||
				a.Contains(s.Topo.Coords[l.A]) || a.Contains(s.Topo.Coords[l.B]) {
				uf.union(ai, na+li)
			}
		}
	}

	// Link–link adjacency: shared endpoint or geometric crossing.
	for i, idA := range down {
		la := s.Topo.G.Link(idA)
		for j := i + 1; j < len(down); j++ {
			if uf.find(na+i) == uf.find(na+j) {
				continue
			}
			lb := s.Topo.G.Link(down[j])
			if la.A == lb.A || la.A == lb.B || la.B == lb.A || la.B == lb.B {
				uf.union(na+i, na+j)
				continue
			}
			if segs[i].Crosses(segs[j]) {
				uf.union(na+i, na+j)
			}
		}
	}

	groups := map[int][]graph.LinkID{}
	var roots []int
	for li, id := range down {
		r := uf.find(na + li)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], id)
	}
	out := make([][]graph.LinkID, 0, len(roots))
	for _, r := range roots { // first-seen order: ascending by lowest link ID
		out = append(out, groups[r])
	}
	return out
}

// areasOverlap reports whether two failure areas geometrically
// overlap (share interior points, up to the predicates' epsilon).
func areasOverlap(a, b Area) bool {
	switch x := a.(type) {
	case geom.Disk:
		switch y := b.(type) {
		case geom.Disk:
			return x.Center.Dist(y.Center) < x.Radius+y.Radius
		case geom.Capsule:
			return y.Seg.DistToPoint(x.Center) < x.Radius+y.Radius
		}
	case geom.Capsule:
		switch y := b.(type) {
		case geom.Disk:
			return x.Seg.DistToPoint(y.Center) < x.Radius+y.Radius
		case geom.Capsule:
			return x.Seg.DistToSegment(y.Seg) < x.Radius+y.Radius
		}
	}
	return false // unknown area kinds: conservatively separate
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
