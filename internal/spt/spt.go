// Package spt implements the shortest-path engine: Dijkstra shortest
// path trees over the graph substrate, in both the forward direction
// (distances from a source) and the reverse direction (distances toward
// a destination, which is what link-state routing tables need), plus
// the incremental recomputation after link/node removals that RTR's
// second phase uses (in the spirit of Narvaez et al., "New dynamic
// algorithms for shortest path tree computation").
package spt

import (
	"math"

	"repro/internal/graph"
)

// Kind distinguishes the orientation of a Tree.
type Kind uint8

const (
	// Forward trees hold distances from Root to every node; the parent
	// chain of v walks back toward Root.
	Forward Kind = iota + 1
	// Reverse trees hold distances from every node to Root; the parent
	// of v is v's next hop toward Root. Reverse trees are routing
	// tables for the destination Root.
	Reverse
)

// None marks an absent parent or parent link in a Tree.
const None = -1

// Inf is the distance assigned to unreachable nodes.
var Inf = math.Inf(1)

// Tree is a shortest path tree rooted at Root.
type Tree struct {
	Kind Kind
	Root graph.NodeID
	// Dist[v] is the path cost between v and Root (orientation per
	// Kind); Inf when unreachable.
	Dist []float64
	// Parent[v] is the neighbor of v on the shortest path toward Root,
	// or None.
	Parent []int32
	// ParentLink[v] is the link connecting v to Parent[v], or None.
	ParentLink []int32
}

// Reachable reports whether v has a path to/from the root.
func (t *Tree) Reachable(v graph.NodeID) bool {
	return !math.IsInf(t.Dist[v], 1)
}

// CostTo returns the path cost between v and the root, and whether v is
// reachable.
func (t *Tree) CostTo(v graph.NodeID) (float64, bool) {
	d := t.Dist[v]
	return d, !math.IsInf(d, 1)
}

// NextHop returns v's next hop toward the root of a Reverse tree.
// It reports false when v is the root or unreachable.
func (t *Tree) NextHop(v graph.NodeID) (graph.NodeID, bool) {
	if t.Parent[v] == None {
		return 0, false
	}
	return graph.NodeID(t.Parent[v]), true
}

// PathNodes returns the node sequence of the shortest path between the
// root and v: root→v for Forward trees, v→root for Reverse trees.
// It reports false when v is unreachable.
func (t *Tree) PathNodes(v graph.NodeID) ([]graph.NodeID, bool) {
	return t.AppendPathNodes(nil, v)
}

// AppendPathNodes appends the node sequence of the shortest path
// between the root and v to buf (oriented like PathNodes) and returns
// the extended slice, letting callers reuse one backing array across
// extractions. It reports false, with buf unchanged, when v is
// unreachable.
func (t *Tree) AppendPathNodes(buf []graph.NodeID, v graph.NodeID) ([]graph.NodeID, bool) {
	if math.IsInf(t.Dist[v], 1) {
		return buf, false
	}
	start := len(buf)
	for u := v; ; {
		buf = append(buf, u)
		p := t.Parent[u]
		if p == None {
			break
		}
		u = graph.NodeID(p)
	}
	if t.Kind == Forward {
		reverse(buf[start:])
	}
	return buf, true
}

// PathLinks returns the link sequence of the shortest path between the
// root and v, oriented like PathNodes. It reports false when v is
// unreachable.
func (t *Tree) PathLinks(v graph.NodeID) ([]graph.LinkID, bool) {
	return t.AppendPathLinks(nil, v)
}

// AppendPathLinks appends the link sequence of the shortest path
// between the root and v to buf, oriented like PathNodes, and returns
// the extended slice. It reports false, with buf unchanged, when v is
// unreachable.
func (t *Tree) AppendPathLinks(buf []graph.LinkID, v graph.NodeID) ([]graph.LinkID, bool) {
	if math.IsInf(t.Dist[v], 1) {
		return buf, false
	}
	start := len(buf)
	for u := v; t.Parent[u] != None; u = graph.NodeID(t.Parent[u]) {
		buf = append(buf, graph.LinkID(t.ParentLink[u]))
	}
	if t.Kind == Forward {
		reverseLinks(buf[start:])
	}
	return buf, true
}

// Hops returns the number of links on the shortest path between the
// root and v, and whether v is reachable.
func (t *Tree) Hops(v graph.NodeID) (int, bool) {
	if math.IsInf(t.Dist[v], 1) {
		return 0, false
	}
	h := 0
	for u := v; t.Parent[u] != None; u = graph.NodeID(t.Parent[u]) {
		h++
	}
	return h, true
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		Kind:       t.Kind,
		Root:       t.Root,
		Dist:       make([]float64, len(t.Dist)),
		Parent:     make([]int32, len(t.Parent)),
		ParentLink: make([]int32, len(t.ParentLink)),
	}
	copy(c.Dist, t.Dist)
	copy(c.Parent, t.Parent)
	copy(c.ParentLink, t.ParentLink)
	return c
}

func reverse(s []graph.NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseLinks(s []graph.LinkID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Compute runs Dijkstra from root over the live subgraph under d and
// returns the Forward shortest path tree.
func Compute(g *graph.Graph, root graph.NodeID, d graph.Denied) *Tree {
	return run(g, root, d, Forward)
}

// ComputeReverse runs Dijkstra toward root (i.e. over reversed edge
// costs) and returns the Reverse tree: every node's distance and next
// hop toward root. This is the per-destination routing table.
func ComputeReverse(g *graph.Graph, root graph.NodeID, d graph.Denied) *Tree {
	return run(g, root, d, Reverse)
}

func run(g *graph.Graph, root graph.NodeID, d graph.Denied, kind Kind) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Dist:       make([]float64, n),
		Parent:     make([]int32, n),
		ParentLink: make([]int32, n),
	}
	ws := GetWorkspace()
	defer ws.Release()
	ws.runInto(t, g, root, d, kind)
	return t
}

// settleDense runs the Dijkstra main loop, extending the tree from
// whatever is already in the heap. If scope is non-nil, only nodes with
// scope[v] == true may be relabeled (used by incremental recompute,
// which seeds them from neighbours outside the heap), and a popped node
// that reaches one at its current distance takes it over when it comes
// before the current parent in (dist, node) order: a cold build would
// have popped it first. Cold builds skip the test, as a parent always
// pops before its rivals there.
// The failure overlay arrives compiled to flat tables: the per-edge
// membership tests are two slice loads instead of two interface calls,
// which dominates the inner loop on dense topologies (~4m dynamic
// dispatches per tree otherwise). A forward tree pays v→w and a
// reverse tree w→v; the half-edge carries both (graph.AddLinkCost
// stores the same floats as Link.CostFrom), so no link is loaded.
// The heapless reference it must match bit for bit is in
// dense_test.go.
func settleDense(g *graph.Graph, t *Tree, nodeDown, linkDown []bool, h *minHeap, scope []bool) {
	forward := t.Kind == Forward
	for {
		v, dv, ok := h.pop()
		if !ok {
			return
		}
		if dv > t.Dist[v] {
			continue // stale entry
		}
		for _, he := range g.Adj(v) {
			w := he.Neighbor
			if scope != nil && !scope[w] {
				continue
			}
			if nodeDown[w] || linkDown[he.Link] {
				continue
			}
			c := he.Cost
			if !forward {
				c = he.ReverseCost
			}
			nd := dv + c
			if nd < t.Dist[w] {
				t.Dist[w] = nd
				t.Parent[w] = int32(v)
				t.ParentLink[w] = int32(he.Link)
				h.push(w, nd)
			} else if scope != nil && nd == t.Dist[w] {
				p := graph.NodeID(t.Parent[w])
				if (heapEntry{dv, v}).before(heapEntry{t.Dist[p], p}) {
					t.Parent[w] = int32(v)
					t.ParentLink[w] = int32(he.Link)
				}
			}
		}
	}
}

// Recompute returns the shortest path tree equal to
// Compute*/ComputeReverse(g, t.Root, graph.Union{base, extra}) but
// computed incrementally from t, which must have been computed under
// base by this engine. Only the subtree hanging off removed elements
// is rebuilt; the rest of the tree is reused. extra must only remove
// elements (this is the delete-only case RTR needs: the initiator
// learns of additional failures and prunes them). The result is
// bit-identical to the cold build — Dist, Parent, and ParentLink all
// match, including equal-cost tie breaks, because region nodes are
// seeded and settled by the heap's canonical (dist, node) order.
func Recompute(g *graph.Graph, t *Tree, base, extra graph.Denied) *Tree {
	nt := t.Clone()
	ws := GetWorkspace()
	defer ws.Release()
	ws.recomputeInto(nt, g, base, extra)
	return nt
}
