// Package topology provides embedded network topologies: a graph plus
// planar coordinates for every router, the precomputed cross-link
// index RTR's forwarding rule consults, an ISP-like topology generator
// matching the paper's Table II, the paper's worked-example fixture
// (Figs. 1/2/4/6, Table I), and a text codec.
//
// Following the paper's setup, coordinates are drawn uniformly at
// random from a 2000x2000 area and are independent of the graph
// structure; links are straight segments between router coordinates.
package topology

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/par"
)

// Width and Height of the simulation area used throughout the paper.
const (
	Width  = 2000.0
	Height = 2000.0
)

// Topology is a graph embedded in the plane.
type Topology struct {
	Name   string
	G      *graph.Graph
	Coords []geom.Point // indexed by graph.NodeID
}

// Validate checks the internal consistency of the topology: a graph,
// one coordinate per node, and every coordinate finite (a link with a
// NaN or infinite end has no segment to cross-test).
func (t *Topology) Validate() error {
	if t.G == nil {
		return fmt.Errorf("topology %q: nil graph", t.Name)
	}
	if len(t.Coords) != t.G.NumNodes() {
		return fmt.Errorf("topology %q: %d coords for %d nodes", t.Name, len(t.Coords), t.G.NumNodes())
	}
	for v, c := range t.Coords {
		if !finite(c.X) || !finite(c.Y) {
			return fmt.Errorf("topology %q: node %d at (%g, %g): coordinates must be finite", t.Name, v, c.X, c.Y)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Coord returns the coordinates of node v.
func (t *Topology) Coord(v graph.NodeID) geom.Point { return t.Coords[v] }

// LinkSegment returns the straight segment drawn by link id.
func (t *Topology) LinkSegment(id graph.LinkID) geom.Segment {
	l := t.G.Link(id)
	return geom.Segment{A: t.Coords[l.A], B: t.Coords[l.B]}
}

// linkSegments returns every link's segment, indexed by link ID.
func linkSegments(t *Topology) []geom.Segment {
	segs := make([]geom.Segment, t.G.NumLinks())
	for i := range segs {
		segs[i] = t.LinkSegment(graph.LinkID(i))
	}
	return segs
}

// CrossIndex is the precomputed "links across each link" table the
// paper's routers maintain: for every link, the set of links whose
// segments cross it (always in ascending link-ID order). It is
// symmetric by construction.
//
// The lists share one flat array: link a's list is
// cross[off[a]:off[a+1]]. Phase 1 reads only the lists (Crossing); the
// pairwise Cross query, a binary search over a sorted list, serves the
// invariant oracle.
type CrossIndex struct {
	off   []int // len E+1
	cross []graph.LinkID
}

// BuildCrossIndex computes the cross-link table for t. Candidate pairs
// come from a uniform grid over the embedding area (segments indexed
// by the cells their bounding boxes cover, cells about one mean link
// extent wide), so the build does near-linear work on geometrically
// local graphs instead of testing all E^2 pairs; every candidate still
// goes through the exact segment test, so the result is identical to
// the exhaustive scan.
func BuildCrossIndex(t *Topology) *CrossIndex {
	segs := linkSegments(t)
	e := len(segs)
	ci := &CrossIndex{off: make([]int, e+1)}

	sg := newSegGrid(segs)
	// Candidate cells are independent, so the exact tests fan out over
	// cell blocks; each worker accumulates packed (i,j) pairs locally.
	cells := sg.numCells()
	blocks := min(runtime.GOMAXPROCS(0)*8, cells)
	found := make([][]uint64, blocks)
	par.For(blocks, 0, func(b int) {
		var local []uint64
		sg.forCandidatePairsIn(cells*b/blocks, cells*(b+1)/blocks, func(i, j int) {
			if segs[i].Crosses(segs[j]) {
				local = append(local, uint64(i)<<32|uint64(j))
			}
		})
		found[b] = local
	})
	// Count per link, prefix-sum to row ends, then fill each row
	// backwards so off[a] steps down to the row's first slot.
	for _, local := range found {
		for _, p := range local {
			ci.off[p>>32]++
			ci.off[p&0xFFFFFFFF]++
		}
	}
	for a := 1; a <= e; a++ {
		ci.off[a] += ci.off[a-1]
	}
	ci.cross = make([]graph.LinkID, ci.off[e])
	for _, local := range found {
		for _, p := range local {
			i, j := int(p>>32), int(p&0xFFFFFFFF)
			ci.off[i]--
			ci.cross[ci.off[i]] = graph.LinkID(j)
			ci.off[j]--
			ci.cross[ci.off[j]] = graph.LinkID(i)
		}
	}
	// Candidate enumeration visits cells, not IDs, so restore the
	// ascending-ID order the exhaustive scan produced (which also
	// makes the result independent of worker scheduling).
	par.For(e, 0, func(a int) {
		slices.Sort(ci.Crossing(graph.LinkID(a)))
	})
	return ci
}

// Cross reports whether links a and b cross each other.
func (ci *CrossIndex) Cross(a, b graph.LinkID) bool {
	list := ci.Crossing(a)
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && list[lo] == b
}

// Crossing returns the links that cross link a. The returned slice is
// shared and must not be modified; its capacity ends at its length, so
// an append copies instead of overwriting the next link's list.
func (ci *CrossIndex) Crossing(a graph.LinkID) []graph.LinkID {
	lo, hi := ci.off[a], ci.off[a+1]
	return ci.cross[lo:hi:hi]
}

// CrossesAny reports whether link a crosses any link in set, where set
// is a list of link IDs (as carried in a packet's cross_link field).
func (ci *CrossIndex) CrossesAny(a graph.LinkID, set []graph.LinkID) bool {
	for _, b := range set {
		if ci.Cross(a, b) {
			return true
		}
	}
	return false
}

// NumCrossings returns the total number of unordered crossing pairs.
func (ci *CrossIndex) NumCrossings() int { return len(ci.cross) / 2 }
