// Package mrc implements the Multiple Routing Configurations baseline
// (Kvalbein et al., INFOCOM 2006): a proactive recovery scheme that
// precomputes a small set of backup configurations such that every
// node and every link is isolated in at least one of them while each
// configuration's backbone stays connected. On a failure, the detecting
// router switches the packet to the configuration isolating the failed
// element and forwards it there. MRC handles any single failure, but a
// path and its backup configurations can fail together under
// large-scale area failures — which is exactly what the paper's
// Table III quantifies.
package mrc

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// DefaultConfigs is the number of backup configurations the
// constructor starts from; it grows automatically if the topology
// cannot isolate every node with that many.
const DefaultConfigs = 5

// MRC is the precomputed configuration set for one topology.
type MRC struct {
	topo *topology.Topology
	k    int
	// isolCfg[v] is the configuration in which node v is isolated.
	isolCfg []int
	// clean, when non-nil, holds the pre-failure routing tables of the
	// same topology; buildTrees warm-starts each configuration tree
	// from the matching clean reverse tree (see NewWarm).
	clean *routing.Tables
	// trees[c][d] is the reverse shortest path tree toward d in
	// configuration c's usable graph (backbone links plus d's own
	// restricted links).
	trees [][]*spt.Tree
}

// Unisolated marks a node no configuration can isolate: an
// articulation point, whose removal would disconnect every backbone.
// MRC cannot protect against its failure — nor can any scheme, since
// its failure partitions the network.
const Unisolated = -1

// New builds MRC state for topo with k configurations (DefaultConfigs
// if k <= 0), every configuration tree cold. Articulation points are
// left unisolated.
func New(topo *topology.Topology, k int) (*MRC, error) {
	return NewWarm(topo, k, nil)
}

// NewWarm is New with a warm start. tables must be the pre-failure
// routing tables of topo (computed under graph.Nothing): each of the
// k*n configuration trees is then seeded from the matching clean
// reverse tree and updated with the delete-only incremental recompute
// — a configuration's isolation overlay only removes elements relative
// to the clean graph, so the result is bit-identical to the cold build
// while skipping the untouched backbone subtrees. If tables is nil,
// built for a different topology, or computed under failures, the
// constructor silently falls back to the cold build.
func NewWarm(topo *topology.Topology, k int, tables *routing.Tables) (*MRC, error) {
	if k <= 0 {
		k = DefaultConfigs
	}
	if k < 2 {
		return nil, errors.New("mrc: need at least 2 configurations")
	}
	m := &MRC{topo: topo, k: k, isolCfg: assign(topo.G, k)}
	if tables != nil && tables.Topology() == topo && tables.Under() == graph.Nothing {
		m.clean = tables
	}
	m.buildTrees()
	return m, nil
}

// NewWarmPhase2 is NewWarm behind the former phase-2 engine selector,
// kept with its signature for the benchmark harness. Phase 2 has one
// engine: any e other than spt.EngineDijkstra is an error, and heur is
// unused.
func NewWarmPhase2(topo *topology.Topology, k int, tables *routing.Tables, e spt.Engine, heur spt.Heuristic) (*MRC, error) {
	if e != spt.EngineDijkstra {
		return nil, fmt.Errorf("mrc: unknown phase-2 engine %d", e)
	}
	return NewWarm(topo, k, tables)
}

// Configs returns the number of configurations in use.
func (m *MRC) Configs() int { return m.k }

// ConfigOf returns the configuration in which v is isolated, or
// Unisolated for articulation points.
func (m *MRC) ConfigOf(v graph.NodeID) int { return m.isolCfg[v] }

// UnprotectedNodes returns the nodes MRC cannot protect: those no
// configuration isolates. They are (a subset of) the topology's
// articulation points — single points of failure that partition the
// network, against which no recovery scheme helps.
func (m *MRC) UnprotectedNodes() []graph.NodeID {
	var out []graph.NodeID
	for v, c := range m.isolCfg {
		if c == Unisolated {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// assign greedily picks an isolation configuration for every node such
// that each configuration's backbone stays connected and every
// isolated node keeps a restricted link into the backbone. Nodes that
// fit no configuration (articulation points) stay Unisolated.
func assign(g *graph.Graph, k int) []int {
	n := g.NumNodes()
	isol := make([]int, n)
	for i := range isol {
		isol[i] = Unisolated
	}
	for v := 0; v < n; v++ {
		for attempt := 0; attempt < k; attempt++ {
			c := (v + attempt) % k
			if canIsolate(g, isol, graph.NodeID(v), c) {
				isol[v] = c
				break
			}
		}
	}
	return isol
}

// canIsolate checks that assigning v to configuration c keeps c's
// backbone connected, leaves v a backbone neighbor, and does not strip
// any neighbor already isolated in c of its last restricted link.
func canIsolate(g *graph.Graph, isol []int, v graph.NodeID, c int) bool {
	// v needs at least one neighbor outside configuration c for its
	// restricted link.
	hasRestricted := false
	for _, h := range g.Adj(v) {
		if isol[h.Neighbor] != c && h.Neighbor != v {
			hasRestricted = true
			break
		}
	}
	if !hasRestricted {
		return false
	}
	// Neighbors of v isolated in c must keep a restricted link other
	// than the one to v.
	for _, h := range g.Adj(v) {
		w := h.Neighbor
		if isol[w] != c {
			continue
		}
		keeps := false
		for _, h2 := range g.Adj(w) {
			if h2.Neighbor != v && isol[h2.Neighbor] != c {
				keeps = true
				break
			}
		}
		if !keeps {
			return false
		}
	}
	// The backbone of c (nodes not isolated in c, links between them)
	// must remain connected after adding v to c.
	n := g.NumNodes()
	inBackbone := func(u graph.NodeID) bool {
		return u != v && isol[u] != c
	}
	var start graph.NodeID
	count := 0
	for u := 0; u < n; u++ {
		if inBackbone(graph.NodeID(u)) {
			if count == 0 {
				start = graph.NodeID(u)
			}
			count++
		}
	}
	if count == 0 {
		return false // isolating v would empty the backbone
	}
	seen := make([]bool, n)
	stack := []graph.NodeID{start}
	seen[start] = true
	visited := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.Adj(u) {
			w := h.Neighbor
			if seen[w] || !inBackbone(w) {
				continue
			}
			seen[w] = true
			visited++
			stack = append(stack, w)
		}
	}
	return visited == count
}

// cfgDenied is the graph.Denied view of one configuration for routing
// toward one destination: links with an isolated endpoint are unusable
// unless that endpoint is the destination itself (restricted last hop)
// or the link's isolated endpoint is the packet source handled in
// Route.
type cfgDenied struct {
	m   *MRC
	c   int
	dst graph.NodeID
}

var _ graph.Denied = cfgDenied{}

func (d cfgDenied) NodeDown(v graph.NodeID) bool {
	return d.m.isolCfg[v] == d.c && v != d.dst
}

func (d cfgDenied) LinkDown(id graph.LinkID) bool {
	l := d.m.topo.G.Link(id)
	if d.m.isolCfg[l.A] == d.c && l.A != d.dst {
		return true
	}
	return d.m.isolCfg[l.B] == d.c && l.B != d.dst
}

func (m *MRC) buildTrees() {
	n := m.topo.G.NumNodes()
	m.trees = make([][]*spt.Tree, m.k)
	for c := 0; c < m.k; c++ {
		m.trees[c] = make([]*spt.Tree, n)
	}
	// The k*n per-configuration trees are independent of one another
	// (isolCfg is read-only by now): build the whole matrix in parallel.
	// With clean tables available, each tree warm-starts from the
	// destination's clean reverse tree: the isolation overlay is
	// delete-only relative to the clean graph, so the incremental
	// recompute yields the bit-identical tree for a fraction of the work.
	par.For(m.k*n, 0, func(i int) {
		c, d := i/n, graph.NodeID(i%n)
		den := cfgDenied{m: m, c: c, dst: d}
		if m.clean != nil {
			m.trees[c][d] = spt.Recompute(m.topo.G, m.clean.DestTree(d), graph.Nothing, den)
		} else {
			m.trees[c][d] = spt.ComputeReverse(m.topo.G, d, den)
		}
	})
}

// Route returns the path from src to dst in configuration c. The
// exclude link — typically the failed link the caller just observed —
// is only consulted when haveExclude is true: a backbone route whose
// first hop uses it is rejected (ok=false), and an isolated source
// will not leave over it. When haveExclude is false, exclude is
// ignored entirely and any value may be passed. When src itself is
// isolated in c, the route leaves src over its best restricted link
// into the backbone first.
func (m *MRC) Route(c int, src, dst graph.NodeID, exclude graph.LinkID, haveExclude bool) ([]graph.NodeID, []graph.LinkID, bool) {
	if src == dst {
		return []graph.NodeID{src}, nil, true
	}
	tree := m.trees[c][dst]
	if m.isolCfg[src] != c {
		nodes, ok := tree.PathNodes(src)
		if !ok {
			return nil, nil, false
		}
		links, _ := tree.PathLinks(src)
		if haveExclude && len(links) > 0 && links[0] == exclude {
			return nil, nil, false
		}
		return nodes, links, true
	}
	// Isolated source: leave over the best restricted link first.
	bestCost := spt.Inf
	var bestHe graph.Halfedge
	found := false
	for _, he := range m.topo.G.Adj(src) {
		if haveExclude && he.Link == exclude {
			continue
		}
		if m.isolCfg[he.Neighbor] == c {
			// Still isolated — even when the neighbor is dst itself: a
			// link between two nodes isolated in the same configuration
			// is an isolated link and carries no traffic in c (the tree
			// already treats it as down; the first hop must too).
			continue
		}
		c2, ok := tree.CostTo(he.Neighbor)
		if !ok {
			continue
		}
		if c2+he.Cost < bestCost {
			bestCost = c2 + he.Cost
			bestHe = he
			found = true
		}
	}
	if !found {
		return nil, nil, false
	}
	nodes, ok := tree.PathNodes(bestHe.Neighbor)
	if !ok {
		return nil, nil, false
	}
	links, _ := tree.PathLinks(bestHe.Neighbor)
	outNodes := append([]graph.NodeID{src}, nodes...)
	outLinks := append([]graph.LinkID{bestHe.Link}, links...)
	return outNodes, outLinks, true
}

// Result is the outcome of one MRC recovery attempt.
type Result struct {
	Delivered bool
	// Config is the backup configuration the packet switched to.
	Config int
	// Walk is the packet trajectory from the recovery initiator.
	Walk routing.Walk
	// DropAt is where the packet died (only when !Delivered): either
	// no route existed in the chosen configuration, or the route met
	// another failure (MRC does not switch configurations twice).
	DropAt graph.NodeID
}

// Recover attempts MRC recovery at the initiator whose next hop nh
// (over link trigger) toward dst is unreachable: switch to the
// configuration isolating the suspected failed element and forward
// there. Under large-scale failures the configured route frequently
// contains further failures, in which case the packet is dropped.
func (m *MRC) Recover(lv *routing.LocalView, initiator, dst, nh graph.NodeID, trigger graph.LinkID) (Result, error) {
	var res Result
	if !lv.NodeAlive(initiator) {
		return res, fmt.Errorf("mrc: initiator %d is down", initiator)
	}
	// Standard MRC config selection: assume the next-hop node failed
	// unless it is the destination itself, in which case only the link
	// can be bypassed.
	if nh != dst {
		res.Config = m.isolCfg[nh]
	} else {
		res.Config = m.isolCfg[initiator]
	}
	if res.Config == Unisolated {
		// The suspected element is an articulation point (or the
		// initiator is, in the last-hop case): no configuration
		// isolates it, so MRC has no recovery route.
		res.DropAt = initiator
		return res, nil
	}
	nodes, links, ok := m.Route(res.Config, initiator, dst, trigger, true)
	if !ok {
		res.DropAt = initiator
		return res, nil
	}
	for i := 0; i+1 < len(nodes); i++ {
		if lv.NeighborUnreachable(nodes[i], links[i]) {
			res.DropAt = nodes[i]
			return res, nil
		}
		res.Walk.Append(routing.HopRecord{From: nodes[i], To: nodes[i+1], Link: links[i]})
	}
	res.Delivered = true
	return res, nil
}
