// Package fcp implements the Failure-Carrying Packets baseline
// (Lakshminarayanan et al., SIGCOMM 2007) in the source-routing
// version the paper compares against: packets carry the set of failed
// links discovered so far; whenever the packet meets a failure not yet
// recorded, the current router records it, recomputes a shortest path
// to the destination in the pre-failure topology minus all carried
// failures, and re-source-routes the packet. The packet is discarded
// only when the current router's pruned view has no path left.
package fcp

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// FCP is the baseline engine bound to one topology. It is stateless
// apart from the immutable topology (and an optional clean-tree
// provider) and safe for concurrent use.
type FCP struct {
	topo *topology.Topology
	// clean optionally supplies the pre-failure forward SPT rooted at a
	// node. The carried failure set only grows, so every recomputation
	// is a delete-only update of that clean tree and can run as a
	// frontier-push spt.Recompute over the affected region instead of a
	// cold full-graph Dijkstra. Bit-identical either way (the
	// incremental engine's canonical tie-break guarantee).
	clean func(graph.NodeID) *spt.Tree
}

// New creates an FCP engine for topo.
func New(topo *topology.Topology) *FCP {
	return &FCP{topo: topo}
}

// UseCleanTrees installs a provider of pre-failure forward shortest
// path trees (the SPT every link-state router maintains anyway) that
// Recover warm-starts its per-iteration recomputations from. The
// provider must be safe for concurrent use and the returned trees are
// treated as read-only; World wires RTR's per-node sync.Once cache
// here so both protocols share one set of clean trees.
func (f *FCP) UseCleanTrees(clean func(graph.NodeID) *spt.Tree) { f.clean = clean }

// Topology returns the engine's topology.
func (f *FCP) Topology() *topology.Topology { return f.topo }

// Result is the outcome of one FCP recovery attempt.
type Result struct {
	Delivered bool
	// Walk is the packet trajectory from the recovery initiator, with
	// per-hop header recording bytes (carried failed links plus the
	// current source route).
	Walk routing.Walk
	// SPCalcs is the number of shortest path calculations performed —
	// FCP recomputes at the initiator and at every newly met failure.
	SPCalcs int
	// Header is the final packet header (carried failures + last
	// source route).
	Header routing.Header
	// DropAt is the node that discarded the packet (only meaningful
	// when !Delivered): its pruned view had no path to the
	// destination.
	DropAt graph.NodeID
}

// maxRecomputes bounds the recovery loop defensively; each iteration
// records at least one new failed link, so the true bound is the
// number of failed links.
func (f *FCP) maxRecomputes() int { return f.topo.G.NumLinks() + 2 }

// recoverScratch pools the per-recovery working slices: path
// extraction buffers and the working header's failed-link and
// source-route backing. sealHeader clones the header fields into
// exact-size owned slices on every return path, so the scratch never
// escapes a Recover call.
type recoverScratch struct {
	nodes  []graph.NodeID
	links  []graph.LinkID
	failed []graph.LinkID
	route  []graph.NodeID
}

var scratchPool = sync.Pool{New: func() any { return new(recoverScratch) }}

// sealHeader replaces the header's pooled backing with owned
// exact-size copies (nil when empty, matching the semantics of the
// append-to-nil construction this replaces).
func sealHeader(h *routing.Header) {
	if len(h.FailedLinks) == 0 {
		h.FailedLinks = nil
	} else {
		h.FailedLinks = append(make([]graph.LinkID, 0, len(h.FailedLinks)), h.FailedLinks...)
	}
	if len(h.SourceRoute) == 0 {
		h.SourceRoute = nil
	} else {
		h.SourceRoute = append(make([]graph.NodeID, 0, len(h.SourceRoute)), h.SourceRoute...)
	}
}

// Recover attempts delivery from the recovery initiator to dst under
// the local view lv. The initiator already observes its own
// unreachable neighbors and records them in the header before the
// first computation (FCP packets carry failures the moment they are
// known).
func (f *FCP) Recover(lv *routing.LocalView, initiator, dst graph.NodeID) (Result, error) {
	var res Result
	if !lv.NodeAlive(initiator) {
		return res, fmt.Errorf("fcp: initiator %d is down", initiator)
	}
	g := f.topo.G
	res.Header.Mode = routing.ModeSource
	res.Header.RecInit = initiator

	cur := initiator
	// The pruned view only accumulates failures across iterations, so
	// one mask serves the whole recovery; likewise one pooled Dijkstra
	// workspace serves every recomputation (the tree is consumed before
	// the next iteration overwrites the scratch buffers).
	m := graph.NewMask(g)
	ws := spt.GetWorkspace()
	defer ws.Release()
	sc := scratchPool.Get().(*recoverScratch)
	defer scratchPool.Put(sc)
	res.Header.FailedLinks = sc.failed[:0]
	applied := 0 // prefix of Header.FailedLinks already failed into m
	for iter := 0; iter < f.maxRecomputes(); iter++ {
		// Record everything the current router can observe (adjacency
		// scan, same order as lv.UnreachableLinks, without the slice).
		for _, he := range g.Adj(cur) {
			if lv.NeighborUnreachable(cur, he.Link) {
				res.Header.RecordFailedLink(he.Link)
			}
		}
		sc.failed = res.Header.FailedLinks

		// Fail only the links recorded since the last iteration into
		// the pruned view — the carried set is append-only, so the mask
		// already holds the earlier prefix.
		for _, id := range res.Header.FailedLinks[applied:] {
			m.FailLink(id)
		}
		applied = len(res.Header.FailedLinks)

		// Compute a shortest path in the pruned view: one shortest-path
		// calculation, delete-only from the router's clean tree when a
		// provider is installed, cold otherwise, with the same route.
		var tree *spt.Tree
		if f.clean != nil {
			tree = ws.Recompute(g, f.clean(cur), graph.Nothing, m)
		} else {
			tree = ws.Compute(g, cur, m)
		}
		nodes, ok := tree.AppendPathNodes(sc.nodes[:0], dst)
		res.SPCalcs++
		sc.nodes = nodes
		if !ok {
			res.DropAt = cur
			sealHeader(&res.Header)
			return res, nil
		}
		links, _ := tree.AppendPathLinks(sc.links[:0], dst)
		sc.links = links
		// The source route needs backing distinct from sc.nodes: on a
		// blocked hop the header keeps this iteration's route while the
		// next iteration's path extraction reuses sc.nodes.
		res.Header.SourceRoute = append(sc.route[:0], nodes...)
		sc.route = res.Header.SourceRoute
		res.Header.SourceIdx = 0
		bytes := res.Header.RecordingBytes()

		// Source-route until delivered or blocked.
		res.Walk.Reserve(len(links))
		blocked := false
		for i := 0; i+1 < len(nodes); i++ {
			if lv.NeighborUnreachable(nodes[i], links[i]) {
				cur = nodes[i]
				blocked = true
				break
			}
			res.Header.SourceIdx = i + 1
			res.Walk.Append(routing.HopRecord{From: nodes[i], To: nodes[i+1], Link: links[i], HeaderBytes: bytes})
		}
		if !blocked {
			res.Delivered = true
			sealHeader(&res.Header)
			return res, nil
		}
	}
	res.DropAt = cur
	sealHeader(&res.Header)
	return res, fmt.Errorf("fcp: recompute bound exceeded at node %d", cur)
}
