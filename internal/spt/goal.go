package spt

import (
	"math"

	"repro/internal/graph"
)

// Engine names a phase-2 route engine. Phase 2 has one engine, the
// (incremental) shortest path tree, so EngineDijkstra is the only
// value; the type is kept only because the benchmark harness passes it
// to sim.NewWorldPhase2 and mrc.NewWarmPhase2.
type Engine uint8

// EngineDijkstra is the full shortest-path-tree engine: one
// (incremental) Dijkstra serves every destination.
const EngineDijkstra Engine = 0

// Heuristic supplies admissible, consistent lower bounds on
// shortest-path costs for Workspace.ComputeGoal's A* search.
type Heuristic interface {
	// Lower returns a lower bound on the cost of the cheapest a→b path
	// in the searched graph. It must be consistent: for every link
	// (u, w) with cost c, Lower(u, b) <= c + Lower(w, b).
	Lower(a, b graph.NodeID) float64
}

// GoalResult is the output of a single-pair query. The Nodes/Links
// slices are appended to in place, so callers can pass retained
// buffers (sliced to length zero) and run queries without steady-state
// allocations.
type GoalResult struct {
	// Nodes is the path src..dst inclusive; Links the corresponding
	// link sequence (len(Nodes)-1 entries).
	Nodes []graph.NodeID
	Links []graph.LinkID
	// Cost is the path cost, Inf when dst is unreachable.
	Cost float64
}

// ComputeGoal computes the shortest src→dst path over the live
// subgraph under d: Dijkstra with early exit when heur is nil (how the
// benchmark's spt.goal_us row calls it), A* search under a consistent
// heuristic otherwise. It settles only the nodes whose
// f = g + h bound does not exceed the path cost, instead of the whole
// graph.
//
// The result is bit-identical to extracting the path from
// Compute(g, src, d): same cost and, under the engine's canonical
// (dist, node) tie-break, the same node and link sequence. A* settle
// order differs from Dijkstra's, so the search keeps only distance
// labels and derives the path afterwards by walking canonical
// predecessors (see reconstructGoal); if that walk ever fails — only
// conceivable under adversarial floating-point costs — it falls back
// to a full canonical Dijkstra, so canonicality is unconditional.
//
// It reports false, with res.Nodes/res.Links truncated to their input
// lengths and res.Cost = Inf, when dst is unreachable from src.
func (ws *Workspace) ComputeGoal(res *GoalResult, g *graph.Graph, src, dst graph.NodeID, d graph.Denied, heur Heuristic) bool {
	n := g.NumNodes()
	nodesBase, linksBase := len(res.Nodes), len(res.Links)
	res.Cost = Inf

	dn, dl := ws.dense(g, d)
	if dn[src] || dn[dst] {
		return false
	}
	if src == dst {
		res.Nodes = append(res.Nodes, src)
		res.Cost = 0
		return true
	}

	ws.ensureScratch(n)
	t := &ws.scratch
	t.Kind, t.Root = Forward, src
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
	}
	t.Dist[src] = 0
	settled := ws.ensureSettled(n)
	ws.h.reset(n)
	ws.h.push(src, 0)
	settleGoal(g, t, dn, dl, &ws.h, settled, dst, heur)
	if !settled[dst] {
		return false
	}
	res.Cost = t.Dist[dst]

	if reconstructGoal(res, g, t, dl, settled, src, dst) {
		reverse(res.Nodes[nodesBase:])
		reverseLinks(res.Links[linksBase:])
		return true
	}

	// Defensive fallback: the canonical-predecessor walk found a node
	// with no exact-equality predecessor, which cannot happen when
	// distance sums are exact (all bundled topologies have unit costs).
	// Recompute the full canonical tree and extract — always correct.
	res.Nodes = res.Nodes[:nodesBase]
	res.Links = res.Links[:linksBase]
	ws.runInto(t, g, src, d, Forward)
	res.Nodes, _ = t.AppendPathNodes(res.Nodes, dst)
	res.Links, _ = t.AppendPathLinks(res.Links, dst)
	res.Cost = t.Dist[dst]
	return true
}

// goalLower evaluates the heuristic for frontier node v against the
// search goal. Out-of-contract values (negative, NaN, +Inf) degrade to
// the always-admissible 0.
func goalLower(heur Heuristic, v, goal graph.NodeID) float64 {
	if heur == nil {
		return 0
	}
	b := heur.Lower(v, goal)
	if math.IsInf(b, 1) || !(b > 0) {
		return 0
	}
	return b
}

// settleGoal runs the A* main loop with the overlay as flat down
// tables, mirroring settleDense. The heap carries f = g + h
// priorities while t.Dist holds g; a node's newest (lowest-f) entry
// always pops first, so the settled table doubles as the stale-entry
// filter. The loop keeps settling past the goal until the heap's best
// f exceeds the goal's distance: with a consistent heuristic every
// node whose label the canonical reconstruction may consult has
// f <= dist(goal) and is therefore settled, with its exact label, by
// the time the loop exits.
func settleGoal(g *graph.Graph, t *Tree, nodeDown, linkDown []bool, pq *minHeap, settled []bool, goal graph.NodeID, heur Heuristic) {
	goalF := Inf
	for pq.len() > 0 {
		if pq.dists[0] > goalF {
			break
		}
		v, _, _ := pq.pop()
		if settled[v] {
			continue // stale entry
		}
		settled[v] = true
		if v == goal {
			// Paths through the goal cost more than dist(goal), so
			// nodes reached via its edges can never be consulted by the
			// reconstruction: skip relaxing them.
			goalF = t.Dist[v]
			continue
		}
		dv := t.Dist[v]
		for _, he := range g.Adj(v) {
			w := he.Neighbor
			if settled[w] || nodeDown[w] || linkDown[he.Link] {
				continue
			}
			l := g.Link(he.Link)
			nd := dv + edgeCost(l, t.Kind, w)
			if nd < t.Dist[w] {
				t.Dist[w] = nd
				pq.push(w, nd+goalLower(heur, w, goal))
			}
		}
	}
}

// reconstructGoal derives the canonical shortest path from the A*
// distance labels by walking backward from goal: at each node the
// canonical predecessor is the settled live neighbor u minimizing
// (Dist[u], u) among those with Dist[u] + edgeCost == Dist[cur]
// exactly, taking the first (lowest-ID) link on equal-cost parallel
// links. That reproduces Dijkstra's parent choice: Dijkstra's strict
// '<' relaxation fixes w's parent to the first predecessor reaching
// w's final label in the canonical (dist, node) pop order, which is
// exactly the minimum above; and adjacency lists hold halfedges in
// link-creation order, so the first matching halfedge is the one
// Dijkstra kept. Every consulted predecessor is settled with its
// exact label because its f bound cannot exceed dist(goal) (see
// settleGoal). Nodes are appended goal-first; the caller reverses.
// Returns false if some node has no exact-equality predecessor (float
// pathology; caller falls back).
func reconstructGoal(res *GoalResult, g *graph.Graph, t *Tree, linkDown []bool, settled []bool, root, goal graph.NodeID) bool {
	res.Nodes = append(res.Nodes, goal)
	for cur := goal; cur != root; {
		dcur := t.Dist[cur]
		var bestU graph.NodeID
		var bestLink graph.LinkID
		found := false
		for _, he := range g.Adj(cur) {
			u := he.Neighbor
			// A settled node is necessarily alive, but the connecting
			// link can be down with both endpoints alive.
			if !settled[u] || linkDown[he.Link] {
				continue
			}
			du := t.Dist[u]
			if du+edgeCost(g.Link(he.Link), t.Kind, cur) != dcur {
				continue
			}
			if !found || du < t.Dist[bestU] || (du == t.Dist[bestU] && u < bestU) {
				found = true
				bestU, bestLink = u, he.Link
			}
		}
		if !found {
			return false
		}
		res.Nodes = append(res.Nodes, bestU)
		res.Links = append(res.Links, bestLink)
		cur = bestU
	}
	return true
}
