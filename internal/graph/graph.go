// Package graph implements the undirected network graph substrate used
// throughout the repository: routers are nodes, links are undirected
// edges with stable 32-bit identifiers and (possibly asymmetric)
// per-direction costs, as in the paper's network model.
//
// The graph is append-only: links are added during construction and
// never removed. Failures are expressed as overlays (see Denied and
// Mask) so that many failure scenarios can share one immutable graph.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a router. In-memory identifiers are 32 bits so
// that synthesized city/continent-scale topologies (10^5 nodes and
// beyond) are representable; the paper's 16-bit on-the-wire header
// encoding is enforced separately by the routing codec.
type NodeID uint32

// LinkID identifies an undirected link. Like NodeID it is 32 bits in
// memory; the packet header's 16-bit wire representation is a codec
// concern, not a graph limit.
type LinkID uint32

// MaxNodes is the maximum number of nodes a Graph can hold. Capped at
// MaxInt32 (not MaxUint32) so IDs always fit in the int32 parent /
// parent-link arrays used by the SPT layer, where -1 is a sentinel.
const MaxNodes = math.MaxInt32

// MaxLinks is the maximum number of links a Graph can hold; capped at
// MaxInt32 for the same sentinel reason as MaxNodes.
const MaxLinks = math.MaxInt32

// Link is an undirected link between routers A and B. CostAB is the
// cost of traversing the link from A to B and CostBA the reverse cost;
// the two may differ (asymmetric links).
type Link struct {
	ID     LinkID
	A, B   NodeID
	CostAB float64
	CostBA float64
}

// Other returns the endpoint of the link opposite to v.
// It panics if v is not an endpoint.
func (l Link) Other(v NodeID) NodeID {
	switch v {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of link %d (%d-%d)", v, l.ID, l.A, l.B))
	}
}

// CostFrom returns the cost of traversing the link starting at
// endpoint v. It panics if v is not an endpoint.
func (l Link) CostFrom(v NodeID) float64 {
	switch v {
	case l.A:
		return l.CostAB
	case l.B:
		return l.CostBA
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of link %d (%d-%d)", v, l.ID, l.A, l.B))
	}
}

// HasEndpoint reports whether v is one of the link's endpoints.
func (l Link) HasEndpoint(v NodeID) bool { return l.A == v || l.B == v }

// String implements fmt.Stringer.
func (l Link) String() string {
	return fmt.Sprintf("e%d(%d-%d)", l.ID, l.A, l.B)
}

// Halfedge is a link viewed from one of its endpoints, as stored in
// adjacency lists: the neighbor it leads to, the cost in that
// direction, and the cost from the neighbor back, so that a walk over
// adjacency never needs to load the link for either direction.
type Halfedge struct {
	Link        LinkID
	Neighbor    NodeID
	Cost        float64
	ReverseCost float64
}

// Graph is an immutable-after-construction undirected graph.
// The zero value is an empty graph with no nodes; use New.
type Graph struct {
	n     int
	links []Link
	adj   [][]Halfedge
}

// Errors returned by graph construction.
var (
	ErrNodeOutOfRange = errors.New("graph: node out of range")
	ErrSelfLoop       = errors.New("graph: self loops are not allowed")
	ErrTooManyNodes   = errors.New("graph: too many nodes")
	ErrTooManyLinks   = errors.New("graph: too many links")
	ErrBadCost        = errors.New("graph: link cost must be positive and finite")
)

// WithNodes returns an empty graph with n nodes and no links. Unlike
// New it reports capacity violations as errors rather than panicking,
// so callers constructing graphs from external input (codecs,
// generators) can propagate a descriptive failure.
func WithNodes(n int) (*Graph, error) {
	if n < 0 || n > MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes (capacity %d)", ErrTooManyNodes, n, MaxNodes)
	}
	return &Graph{
		n:   n,
		adj: make([][]Halfedge, n),
	}, nil
}

// New returns an empty graph with n nodes and no links.
// It panics if n is negative or exceeds MaxNodes; use WithNodes to get
// an error instead.
func New(n int) *Graph {
	g, err := WithNodes(n)
	if err != nil {
		panic(err)
	}
	return g
}

// AddLink adds an undirected link between a and b with unit cost in
// both directions and returns its ID.
func (g *Graph) AddLink(a, b NodeID) (LinkID, error) {
	return g.AddLinkCost(a, b, 1, 1)
}

// AddLinkCost adds an undirected link between a and b with the given
// per-direction costs and returns its ID. Parallel links are allowed
// (the graph is a multigraph), self loops are not.
func (g *Graph) AddLinkCost(a, b NodeID, costAB, costBA float64) (LinkID, error) {
	if int(a) >= g.n || int(b) >= g.n {
		return 0, fmt.Errorf("%w: (%d,%d) with %d nodes", ErrNodeOutOfRange, a, b, g.n)
	}
	if a == b {
		return 0, fmt.Errorf("%w: node %d", ErrSelfLoop, a)
	}
	if !validCost(costAB) || !validCost(costBA) {
		return 0, fmt.Errorf("%w: (%g,%g)", ErrBadCost, costAB, costBA)
	}
	if len(g.links) >= MaxLinks {
		return 0, fmt.Errorf("%w: %d links (capacity %d, %d nodes)", ErrTooManyLinks, len(g.links), MaxLinks, g.n)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, CostAB: costAB, CostBA: costBA})
	g.adj[a] = append(g.adj[a], Halfedge{Link: id, Neighbor: b, Cost: costAB, ReverseCost: costBA})
	g.adj[b] = append(g.adj[b], Halfedge{Link: id, Neighbor: a, Cost: costBA, ReverseCost: costAB})
	return id, nil
}

// MustAddLink is AddLink that panics on error; intended for fixtures
// and generators whose inputs are known valid.
func (g *Graph) MustAddLink(a, b NodeID) LinkID {
	id, err := g.AddLink(a, b)
	if err != nil {
		panic(err)
	}
	return id
}

func validCost(c float64) bool {
	return c > 0 && !math.IsInf(c, 0) && !math.IsNaN(c)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the link with the given ID.
// It panics if the ID is out of range.
func (g *Graph) Link(id LinkID) Link {
	return g.links[id]
}

// Links returns a copy of the link table.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Adj returns the adjacency list of v. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Adj(v NodeID) []Halfedge {
	return g.adj[v]
}

// Degree returns the number of incident links of v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// LinkBetween returns the ID of a link between a and b, if any exists.
// With parallel links, the first added wins.
func (g *Graph) LinkBetween(a, b NodeID) (LinkID, bool) {
	if int(a) >= g.n {
		return 0, false
	}
	for _, h := range g.adj[a] {
		if h.Neighbor == b {
			return h.Link, true
		}
	}
	return 0, false
}
