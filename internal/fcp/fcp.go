// Package fcp implements the Failure-Carrying Packets baseline
// (Lakshminarayanan et al., SIGCOMM 2007) in the source-routing
// version the paper compares against: packets carry the set of failed
// links discovered so far; whenever the packet meets a failure not yet
// recorded, the current router records it, recomputes a shortest path
// to the destination in the pre-failure topology minus all carried
// failures, and re-source-routes the packet. The packet is discarded
// only when the current router's pruned view has no path left.
//
// That pruned view depends only on the router and the carried set, so
// recoveries may share its tree through a Memo (RecoverWith).
package fcp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// FCP is the baseline engine bound to one topology. It is stateless
// apart from the immutable topology and its clean-tree provider, and
// safe for concurrent use.
type FCP struct {
	topo *topology.Topology
	// clean supplies the pre-failure forward SPT rooted at a node. The
	// carried failure set only grows, so every recomputation is a
	// delete-only update of that clean tree and runs as an
	// spt.Recompute that settles only the affected region.
	clean func(graph.NodeID) *spt.Tree
}

// New creates an FCP engine for topo that warm-starts its
// per-iteration recomputations from clean, a provider of pre-failure
// forward shortest path trees (the SPT every link-state router
// maintains anyway). The provider must be safe for concurrent use and
// the returned trees are treated as read-only; World passes RTR's
// per-node cache so both protocols share one set of clean trees.
func New(topo *topology.Topology, clean func(graph.NodeID) *spt.Tree) *FCP {
	return &FCP{topo: topo, clean: clean}
}

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

// Memo shares FCP's pruned-view trees between recoveries. The tree a
// router computes depends only on the router and the carried failed
// links — not on the destination, the packet or the scenario — so the
// first recovery that reaches a (router, carried set) pair computes it
// and every later one only extracts a route. Trees are stored as their
// differences from the router's clean tree, so a Memo serves the one
// engine that filled it; its owner bounds its growth by its own
// lifetime (converged.State keeps one per failure scenario).
//
// The zero value is empty and ready. A Memo is safe for concurrent use
// and never holds its lock across a computation: recoveries racing on
// one key may both compute the tree, the first insert wins, and the
// engine's canonical tie-break makes the two identical.
type Memo struct {
	mu    sync.Mutex
	trees map[string]prunedTree
}

// Len returns the number of trees held.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.trees)
}

func (m *Memo) get(key []byte) (prunedTree, bool) {
	m.mu.Lock()
	t, ok := m.trees[string(key)]
	m.mu.Unlock()
	return t, ok
}

func (m *Memo) put(key []byte, t prunedTree) {
	m.mu.Lock()
	if m.trees == nil {
		m.trees = make(map[string]prunedTree)
	}
	if _, ok := m.trees[string(key)]; !ok {
		m.trees[string(key)] = t
	}
	m.mu.Unlock()
}

// prunedTree is a pruned-view tree kept as the (node, parent link)
// pairs where it differs from the router's clean tree, by ascending
// node; every other node keeps its clean parent link. spt.None marks a
// node the pruned view cut off. A few deleted links leave most of a
// tree in place, so this is a fraction of even a parent-link column.
type prunedTree []divergence

type divergence struct {
	node graph.NodeID
	link int32
}

// appendDiff appends the nodes whose parent link in t differs from
// clean's, in ascending order.
func appendDiff(buf prunedTree, t, clean *spt.Tree) prunedTree {
	for v, l := range t.ParentLink {
		if l != clean.ParentLink[v] {
			buf = append(buf, divergence{graph.NodeID(v), l})
		}
	}
	return buf
}

func (t prunedTree) parentLink(clean *spt.Tree, v graph.NodeID) int32 {
	i, found := slices.BinarySearchFunc(t, v, func(d divergence, v graph.NodeID) int { return int(d.node) - int(v) })
	if found {
		return t[i].link
	}
	return clean.ParentLink[v]
}

// appendPath is spt.Tree's AppendPathNodes and AppendPathLinks for the
// stored tree, in one walk. In a tree a node with a parent link has a
// chain of them to the root, so reachability is decided at dst.
func (t prunedTree) appendPath(g *graph.Graph, clean *spt.Tree, nodes []graph.NodeID, links []graph.LinkID, dst graph.NodeID) ([]graph.NodeID, []graph.LinkID, bool) {
	if dst != clean.Root && t.parentLink(clean, dst) == spt.None {
		return nodes, links, false
	}
	u := dst
	for u != clean.Root {
		l := graph.LinkID(t.parentLink(clean, u))
		nodes = append(nodes, u)
		links = append(links, l)
		u = g.Link(l).Other(u)
	}
	nodes = append(nodes, u)
	slices.Reverse(nodes)
	slices.Reverse(links)
	return nodes, links, true
}

// recoverScratch pools the per-recovery working state: path extraction
// buffers, the working header's failed-link and source-route backing,
// the walk's hop records, the pruned-view mask (all up between
// recoveries; applied counts the carried links failed into it) and the
// memo key with its sorted carried set. seal copies everything a
// Result keeps into exact-size owned slices on every return path, so
// the scratch never escapes a Recover call.
type recoverScratch struct {
	nodes   []graph.NodeID
	links   []graph.LinkID
	failed  []graph.LinkID
	route   []graph.NodeID
	hops    []routing.HopRecord
	mask    *graph.Mask
	applied int
	sorted  []graph.LinkID
	key     []byte
	diff    prunedTree
}

var scratchPool = sync.Pool{New: func() any { return new(recoverScratch) }}

// getScratch takes a scratch from the pool with an all-up mask sized
// for g (the pool serves every topology in the process).
func getScratch(g *graph.Graph) *recoverScratch {
	sc := scratchPool.Get().(*recoverScratch)
	if sc.mask == nil {
		sc.mask = graph.NewMask(g)
	} else if nodes, links := sc.mask.DenseTables(); len(nodes) != g.NumNodes() || len(links) != g.NumLinks() {
		sc.mask = graph.NewMask(g)
	}
	sc.hops = sc.hops[:0]
	sc.sorted = sc.sorted[:0]
	return sc
}

// release restores the links failed into the mask and returns sc to
// the pool.
func (sc *recoverScratch) release() {
	for _, id := range sc.failed[:sc.applied] {
		sc.mask.RestoreLink(id)
	}
	sc.applied = 0
	scratchPool.Put(sc)
}

// seal gives res owned copies of the header fields and the walk, which
// still point into the scratch (nil when empty, matching an
// append-to-nil construction).
func seal(res *Result, hops []routing.HopRecord) {
	res.Header.FailedLinks = owned(res.Header.FailedLinks)
	res.Header.SourceRoute = owned(res.Header.SourceRoute)
	res.Walk.Records = owned(hops)
}

func owned[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// Recover attempts delivery from the recovery initiator to dst under
// the local view lv, computing every tree itself (RecoverWith without
// a memo).
func (f *FCP) Recover(lv *routing.LocalView, initiator, dst graph.NodeID) (Result, error) {
	return f.RecoverWith(nil, lv, initiator, dst)
}

// RecoverWith attempts delivery from the recovery initiator to dst
// under the local view lv, reading and filling memo's pruned-view
// trees when memo is non-nil. The Result is identical to Recover's,
// SPCalcs included: a tree read from memo is still one calculation
// the protocol makes. The initiator already observes its own
// unreachable neighbors and records them in the header before the
// first computation (FCP packets carry failures the moment they are
// known).
func (f *FCP) RecoverWith(memo *Memo, lv *routing.LocalView, initiator, dst graph.NodeID) (Result, error) {
	var res Result
	if !lv.NodeAlive(initiator) {
		return res, fmt.Errorf("fcp: initiator %d is down", initiator)
	}
	g := f.topo.G
	res.Header.Mode = routing.ModeSource
	res.Header.RecInit = initiator

	cur := initiator
	// One pooled Dijkstra workspace serves every recomputation (the
	// tree is consumed before the next iteration overwrites it).
	ws := spt.GetWorkspace()
	defer ws.Release()
	sc := getScratch(g)
	defer sc.release()
	res.Header.FailedLinks = sc.failed[:0]
	for iter := 0; iter < f.maxRecomputes(); iter++ {
		// Record everything the current router can observe (adjacency
		// scan, same order as lv.UnreachableLinks, without the slice).
		for _, he := range g.Adj(cur) {
			if lv.NeighborUnreachable(cur, he.Link) {
				res.Header.RecordFailedLink(he.Link)
			}
		}
		sc.failed = res.Header.FailedLinks

		ok := f.route(memo, sc, ws, cur, dst)
		res.SPCalcs++
		if !ok {
			res.DropAt = cur
			seal(&res, sc.hops)
			return res, nil
		}
		nodes, links := sc.nodes, sc.links
		// The source route needs backing distinct from sc.nodes: on a
		// blocked hop the header keeps this iteration's route while the
		// next iteration's path extraction reuses sc.nodes.
		res.Header.SourceRoute = append(sc.route[:0], nodes...)
		sc.route = res.Header.SourceRoute
		res.Header.SourceIdx = 0
		bytes := res.Header.RecordingBytes()

		// Source-route until delivered or blocked.
		blocked := false
		for i := 0; i+1 < len(nodes); i++ {
			if lv.NeighborUnreachable(nodes[i], links[i]) {
				cur = nodes[i]
				blocked = true
				break
			}
			res.Header.SourceIdx = i + 1
			sc.hops = append(sc.hops, routing.HopRecord{From: nodes[i], To: nodes[i+1], Link: links[i], HeaderBytes: bytes})
		}
		if !blocked {
			res.Delivered = true
			seal(&res, sc.hops)
			return res, nil
		}
	}
	res.DropAt = cur
	seal(&res, sc.hops)
	return res, fmt.Errorf("fcp: recompute bound exceeded at node %d", cur)
}

// route performs one shortest-path calculation at cur in its pruned
// view (the clean graph minus the carried links sc.failed) and
// extracts the path to dst into sc.nodes and sc.links, reporting
// whether there is one. The tree comes from memo when it holds it;
// otherwise it is computed delete-only from the router's clean tree
// and then offered to memo.
func (f *FCP) route(memo *Memo, sc *recoverScratch, ws *spt.Workspace, cur, dst graph.NodeID) (ok bool) {
	g := f.topo.G
	if memo != nil {
		// The tree depends on the carried set, not on the order its
		// links were discovered in. The set is append-only within a
		// recovery, so sc.sorted holds its first len(sc.sorted) links
		// in order and only the newly carried ones are inserted.
		for _, id := range sc.failed[len(sc.sorted):] {
			i, _ := slices.BinarySearch(sc.sorted, id)
			sc.sorted = slices.Insert(sc.sorted, i, id)
		}
		sc.key = binary.LittleEndian.AppendUint32(sc.key[:0], uint32(cur))
		for _, id := range sc.sorted {
			sc.key = binary.LittleEndian.AppendUint32(sc.key, uint32(id))
		}
		if t, hit := memo.get(sc.key); hit {
			sc.nodes, sc.links, ok = t.appendPath(g, f.clean(cur), sc.nodes[:0], sc.links[:0], dst)
			return ok
		}
	}
	// The carried set is append-only, so the mask already holds the
	// prefix failed into it by earlier computations.
	for _, id := range sc.failed[sc.applied:] {
		sc.mask.FailLink(id)
	}
	sc.applied = len(sc.failed)
	tree := ws.Recompute(g, f.clean(cur), graph.Nothing, sc.mask)
	if memo != nil {
		sc.diff = appendDiff(sc.diff[:0], tree, f.clean(cur))
		memo.put(sc.key, owned(sc.diff))
	}
	sc.nodes, ok = tree.AppendPathNodes(sc.nodes[:0], dst)
	if ok {
		sc.links, _ = tree.AppendPathLinks(sc.links[:0], dst)
	}
	return ok
}
