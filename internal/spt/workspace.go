package spt

import (
	"sync"

	"repro/internal/graph"
)

// Workspace holds the reusable scratch state of the shortest-path
// engine: the Dijkstra priority queue, a scratch result tree, and the
// affected-region bookkeeping of incremental recomputation. Reusing a
// Workspace across calls makes repeat computations allocation-free.
//
// The scratch-returning methods (Compute, Recompute)
// return a Tree owned by the workspace: it is valid only until the
// workspace's next call or Release. Callers that retain trees must
// Clone them or use the package-level functions, which return owned
// trees while still sharing pooled scratch internally.
//
// A Workspace is single-owner state and not safe for concurrent use;
// use one per goroutine (GetWorkspace/Release round-trip through a
// sync.Pool).
type Workspace struct {
	h       minHeap
	scratch Tree
	// Incremental-recompute scratch: the affected region, the tree's
	// children lists flattened into intrusive linked lists
	// (childHead[p] is p's first child, childNext[c] the next
	// sibling), and the region's nodes.
	affected  []bool
	childHead []int32
	childNext []int32
	queue     []graph.NodeID
	// Compiled overlay scratch: the current computation's failure
	// overlay as flat node/link down tables (see graph.DenseTabler),
	// filled only when the overlay cannot lend its own tables.
	denseNodes []bool
	denseLinks []bool
	// Goal-directed scratch: the settled table of the A* loop (the
	// heap carries f priorities, so staleness is tracked per node
	// rather than by distance comparison).
	settled []bool
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace returns a pooled Workspace.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// Release returns the workspace to the pool. Scratch trees obtained
// from it must not be used afterwards.
func (ws *Workspace) Release() { wsPool.Put(ws) }

// Compute is the scratch-tree equivalent of the package-level Compute:
// the returned tree is owned by the workspace and valid until its next
// call or Release.
func (ws *Workspace) Compute(g *graph.Graph, root graph.NodeID, d graph.Denied) *Tree {
	ws.ensureScratch(g.NumNodes())
	ws.runInto(&ws.scratch, g, root, d, Forward)
	return &ws.scratch
}

// Recompute is the scratch-tree equivalent of the package-level
// Recompute: t must have been computed under base, extra must only
// remove elements. Passing the workspace's own scratch tree as t is
// allowed (chained incremental updates).
func (ws *Workspace) Recompute(g *graph.Graph, t *Tree, base, extra graph.Denied) *Tree {
	n := g.NumNodes()
	ws.ensureScratch(n)
	s := &ws.scratch
	s.Kind, s.Root = t.Kind, t.Root
	copy(s.Dist, t.Dist)
	copy(s.Parent, t.Parent)
	copy(s.ParentLink, t.ParentLink)
	ws.recomputeInto(s, g, base, extra)
	return s
}

// ensureScratch sizes the workspace's scratch tree for n nodes.
func (ws *Workspace) ensureScratch(n int) {
	if cap(ws.scratch.Dist) < n {
		ws.scratch.Dist = make([]float64, n)
		ws.scratch.Parent = make([]int32, n)
		ws.scratch.ParentLink = make([]int32, n)
		return
	}
	ws.scratch.Dist = ws.scratch.Dist[:n]
	ws.scratch.Parent = ws.scratch.Parent[:n]
	ws.scratch.ParentLink = ws.scratch.ParentLink[:n]
}

// ensureAffected returns the affected-region table, sized for n nodes
// and cleared.
func (ws *Workspace) ensureAffected(n int) []bool {
	ws.affected = resizeCleared(ws.affected, n)
	return ws.affected
}

// ensureSettled returns the goal-search settled table, sized for n
// nodes and cleared. All bool scratch goes through resizeCleared so
// every engine sizes (and reuses) pool scratch identically — a
// workspace alternating between full-tree and goal-directed calls
// never resize-thrashes.
func (ws *Workspace) ensureSettled(n int) []bool {
	ws.settled = resizeCleared(ws.settled, n)
	return ws.settled
}

// ensureChildren returns the flattened children lists, sized for n
// nodes and reset to empty (None everywhere).
func (ws *Workspace) ensureChildren(n int) (head, next []int32) {
	if cap(ws.childHead) < n {
		ws.childHead = make([]int32, n)
		ws.childNext = make([]int32, n)
	} else {
		ws.childHead = ws.childHead[:n]
		ws.childNext = ws.childNext[:n]
	}
	for i := 0; i < n; i++ {
		ws.childHead[i] = None
		ws.childNext[i] = None
	}
	return ws.childHead, ws.childNext
}

// ensureDense returns the compiled-overlay scratch tables, sized for
// (n, m) and cleared.
func (ws *Workspace) ensureDense(n, m int) (nodes, links []bool) {
	ws.denseNodes = resizeCleared(ws.denseNodes, n)
	ws.denseLinks = resizeCleared(ws.denseLinks, m)
	return ws.denseNodes, ws.denseLinks
}

func resizeCleared(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// dense returns d as flat node/link down tables: borrowed from d when
// it is a graph.DenseTabler, zeroed scratch for graph.Nothing, and
// compiled into scratch otherwise (O(n+m) interface calls, amortized
// against the ~4m per-edge calls the settle loop would make).
func (ws *Workspace) dense(g *graph.Graph, d graph.Denied) (nodeDown, linkDown []bool) {
	if d == graph.Nothing {
		return ws.ensureDense(g.NumNodes(), g.NumLinks())
	}
	if nodes, links, ok := graph.DenseTablesOf(d); ok {
		return nodes, links
	}
	nd, ld := ws.ensureDense(g.NumNodes(), g.NumLinks())
	for v := range nd {
		nd[v] = d.NodeDown(graph.NodeID(v))
	}
	for l := range ld {
		ld[l] = d.LinkDown(graph.LinkID(l))
	}
	return nd, ld
}

// denseUnion returns the union of two overlays as flat tables,
// borrowing one side's tables outright when the other is Nothing.
func (ws *Workspace) denseUnion(g *graph.Graph, base, extra graph.Denied) (nodeDown, linkDown []bool) {
	if base == graph.Nothing {
		return ws.dense(g, extra)
	}
	if extra == graph.Nothing {
		return ws.dense(g, base)
	}
	nd, ld := ws.ensureDense(g.NumNodes(), g.NumLinks())
	orInto(nd, ld, base)
	orInto(nd, ld, extra)
	return nd, ld
}

// orInto merges d's failures into the (nd, ld) tables.
func orInto(nd, ld []bool, d graph.Denied) {
	if nodes, links, ok := graph.DenseTablesOf(d); ok {
		for i, down := range nodes {
			if down {
				nd[i] = true
			}
		}
		for i, down := range links {
			if down {
				ld[i] = true
			}
		}
		return
	}
	for v := range nd {
		if !nd[v] && d.NodeDown(graph.NodeID(v)) {
			nd[v] = true
		}
	}
	for l := range ld {
		if !ld[l] && d.LinkDown(graph.LinkID(l)) {
			ld[l] = true
		}
	}
}

// runInto resets t for (kind, root) and runs Dijkstra over the live
// subgraph under d, using the workspace's heap and the compiled dense
// view of d.
func (ws *Workspace) runInto(t *Tree, g *graph.Graph, root graph.NodeID, d graph.Denied, kind Kind) {
	n := g.NumNodes()
	t.Kind, t.Root = kind, root
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
		t.Parent[i] = None
		t.ParentLink[i] = None
	}
	dn, dl := ws.dense(g, d)
	if dn[root] {
		return
	}
	t.Dist[root] = 0
	ws.h.reset(n)
	ws.h.push(root, 0)
	settleDense(g, t, dn, dl, &ws.h, nil)
}

// recomputeInto performs the incremental update in place on nt, which
// must be a full copy of a tree computed under base; extra must only
// remove elements. See the package-level Recompute for the algorithm.
func (ws *Workspace) recomputeInto(nt *Tree, g *graph.Graph, base, extra graph.Denied) {
	n := g.NumNodes()
	dn, dl := ws.denseUnion(g, base, extra)

	if dn[nt.Root] {
		for i := 0; i < n; i++ {
			nt.Dist[i] = Inf
			nt.Parent[i] = None
			nt.ParentLink[i] = None
		}
		return
	}

	// 1. Find directly affected nodes: down themselves, or attached to
	// the tree through a removed link or parent. The union tables can
	// stand in for extra: anything down under base is already off the
	// tree.
	affected := ws.ensureAffected(n)
	queue := ws.queue[:0]
	for v := 0; v < n; v++ {
		if nt.Dist[v] == Inf {
			// Unreachable before; deletions cannot help, skip.
			continue
		}
		if pl := nt.ParentLink[v]; dn[v] || pl != None && (dl[pl] || dn[nt.Parent[v]]) {
			affected[v] = true
			queue = append(queue, graph.NodeID(v))
		}
	}
	if len(queue) == 0 {
		ws.queue = queue
		return
	}

	// 2. Extend to all tree descendants of affected nodes; queue ends
	// up holding the whole region.
	head, next := ws.ensureChildren(n)
	for v := 0; v < n; v++ {
		if p := nt.Parent[v]; p != None {
			next[v] = head[p]
			head[p] = int32(v)
		}
	}
	for i := 0; i < len(queue); i++ {
		for c := head[queue[i]]; c != None; c = next[c] {
			if !affected[c] {
				affected[c] = true
				queue = append(queue, graph.NodeID(c))
			}
		}
	}
	ws.queue = queue

	// 3. Reset the region, then label each live region node from its
	// reachable neighbours outside the region, over live links; their
	// labels are final. Take the smallest Dist[u] + cost(u→v), ties to
	// the smallest (Dist[u], u), then to the first link in Adj(v). That
	// is the parent a cold build's strict-< relaxation keeps among these
	// neighbours: it pops them in (dist, node) order, and half-edges sit
	// in link-ID order at both ends, so the first link in Adj(v) is the
	// first in Adj(u). Forward trees pay u→v, reverse trees v→u; v's
	// half-edge carries both. The seeds are staged in the heap, and
	// their distances reach nt.Dist only after the pass, so every region
	// node still reads Inf during it: a finite neighbour is outside the
	// region, and live, since every down node the base tree reaches is
	// in the region. Each labelled node is pushed once; push order does
	// not matter, the heap's (dist, node) order is canonical.
	for _, v := range queue {
		nt.Dist[v] = Inf
		nt.Parent[v] = None
		nt.ParentLink[v] = None
	}
	forward := nt.Kind == Forward
	ws.h.reset(n)
	for _, v := range queue {
		if dn[v] {
			continue
		}
		best, from, link := Inf, heapEntry{dist: Inf}, int32(None)
		for _, he := range g.Adj(v) {
			u := he.Neighbor
			du := nt.Dist[u]
			if du == Inf || dl[he.Link] {
				continue
			}
			c := he.Cost
			if forward {
				c = he.ReverseCost
			}
			e := heapEntry{dist: du, node: u}
			if d := du + c; d < best || d == best && e.before(from) {
				best, from, link = d, e, int32(he.Link)
			}
		}
		if link != None {
			nt.Parent[v] = int32(from.node)
			nt.ParentLink[v] = link
			ws.h.push(v, best)
		}
	}
	for _, e := range ws.h.items {
		nt.Dist[e.node] = e.dist
	}

	// 4. Run Dijkstra over the region alone; settleDense lets a region
	// node that pops before a seeding neighbour take an equal tie over.
	settleDense(g, nt, dn, dl, &ws.h, affected)
}
