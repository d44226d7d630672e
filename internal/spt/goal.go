package spt

import (
	"math"

	"repro/internal/graph"
)

// GoalResult is the output of a goal-directed single-pair query. The
// Nodes/Links slices are appended to in place, so callers can pass
// retained buffers (sliced to length zero) and run queries without
// steady-state allocations.
type GoalResult struct {
	// Nodes is the path src..dst inclusive; Links the corresponding
	// link sequence (len(Nodes)-1 entries).
	Nodes []graph.NodeID
	Links []graph.LinkID
	// Cost is the path cost, Inf when dst is unreachable.
	Cost float64
	// Settled counts the nodes the search settled — the work metric
	// goal direction exists to shrink (a full Dijkstra settles every
	// reachable node).
	Settled int
}

// ComputeGoal is the package-level convenience wrapper: it runs a
// goal-directed query with pooled scratch and returns an owned result.
// Hot paths should use Workspace.ComputeGoal with retained buffers.
func ComputeGoal(g *graph.Graph, src, dst graph.NodeID, d graph.Denied, heur Heuristic) (GoalResult, bool) {
	ws := GetWorkspace()
	defer ws.Release()
	var res GoalResult
	ok := ws.ComputeGoal(&res, g, src, dst, d, heur)
	return res, ok
}

// ComputeGoal computes the shortest src→dst path over the live
// subgraph under d using goal-directed A* search with the admissible
// heuristic heur (nil means the zero heuristic: plain Dijkstra with
// early exit). It settles only the nodes whose f = g + h bound does
// not exceed the path cost, instead of the whole graph.
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
	return ws.computeGoal(res, g, src, dst, d, heur, Forward)
}

// ComputeGoalReverse is ComputeGoal run as a Reverse search rooted at
// dst with src as the search goal: the same src..dst path, but with
// equal-cost ties broken exactly as ComputeReverse(g, dst, d) breaks
// them. Use it to reproduce routes served from per-destination
// (reverse) tables; ComputeGoal reproduces routes served from
// per-source (forward) trees. The two canonical tie-breaks can pick
// different equal-cost paths, which is why both orientations exist.
func (ws *Workspace) ComputeGoalReverse(res *GoalResult, g *graph.Graph, src, dst graph.NodeID, d graph.Denied, heur Heuristic) bool {
	return ws.computeGoal(res, g, dst, src, d, heur, Reverse)
}

// computeGoal runs the search from root toward goal. For Forward,
// root = src and goal = dst; for Reverse, root = dst and goal = src
// (reverse Dijkstra grows from its root exactly like forward Dijkstra
// with flipped edge costs, so "goal" is always the node the search
// hunts for). The emitted path is src..dst for both kinds.
func (ws *Workspace) computeGoal(res *GoalResult, g *graph.Graph, root, goal graph.NodeID, d graph.Denied, heur Heuristic, kind Kind) bool {
	n := g.NumNodes()
	nodesBase, linksBase := len(res.Nodes), len(res.Links)
	res.Cost = Inf
	res.Settled = 0

	// Compile the overlay exactly like runInto does: borrow dense
	// tables when the overlay lends them, zero scratch for Nothing, and
	// otherwise stay on interface dispatch — a single-pair query must
	// not pay an O(n+m) overlay compilation (that would forfeit the
	// sublinear win; MRC's configuration overlays hit this arm).
	var dn, dl []bool
	dense := false
	if d == graph.Nothing {
		dn, dl = ws.ensureDense(n, g.NumLinks())
		dense = true
	} else if nodes, links, ok := graph.DenseTablesOf(d); ok {
		dn, dl = nodes, links
		dense = true
	}
	if dense {
		if dn[root] || dn[goal] {
			return false
		}
	} else if d.NodeDown(root) || d.NodeDown(goal) {
		return false
	}
	if root == goal {
		res.Nodes = append(res.Nodes, root)
		res.Cost = 0
		res.Settled = 1
		return true
	}

	ws.ensureScratch(n)
	t := &ws.scratch
	t.Kind, t.Root = kind, root
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
	}
	t.Dist[root] = 0
	settled := ws.ensureSettled(n)
	ws.h.reset(n)
	ws.h.push(root, 0)
	if dense {
		res.Settled = settleGoalDense(g, t, dn, dl, &ws.h, settled, goal, heur)
	} else {
		res.Settled = settleGoal(g, t, d, &ws.h, settled, goal, heur)
	}
	if !settled[goal] {
		return false
	}
	res.Cost = t.Dist[goal]

	if reconstructGoal(res, g, t, dn, dl, d, settled, root, goal) {
		if kind == Forward {
			reverse(res.Nodes[nodesBase:])
			reverseLinks(res.Links[linksBase:])
		}
		return true
	}

	// Defensive fallback: the canonical-predecessor walk found a node
	// with no exact-equality predecessor, which cannot happen when
	// distance sums are exact (all bundled topologies have unit costs).
	// Recompute the full canonical tree and extract — always correct.
	res.Nodes = res.Nodes[:nodesBase]
	res.Links = res.Links[:linksBase]
	ws.runInto(t, g, root, d, kind)
	res.Nodes, _ = t.AppendPathNodes(res.Nodes, goal)
	res.Links, _ = t.AppendPathLinks(res.Links, goal)
	res.Cost = t.Dist[goal]
	return true
}

// goalLower evaluates the heuristic for frontier node v against the
// fixed search goal, oriented by tree kind: a Forward search from src
// bounds the remaining v→dst cost, a Reverse search rooted at dst
// bounds the remaining src→v cost. Out-of-contract values (negative,
// NaN, +Inf) degrade to the always-admissible 0.
func goalLower(heur Heuristic, kind Kind, v, goal graph.NodeID) float64 {
	if heur == nil {
		return 0
	}
	var b float64
	if kind == Forward {
		b = heur.Lower(v, goal)
	} else {
		b = heur.Lower(goal, v)
	}
	if math.IsInf(b, 1) || !(b > 0) {
		return 0
	}
	return b
}

// settleGoalDense runs the A* main loop with the overlay as flat down
// tables, mirroring settleDense. The heap carries f = g + h
// priorities while t.Dist holds g; a node's newest (lowest-f) entry
// always pops first, so the settled table doubles as the stale-entry
// filter. The loop keeps settling past the goal until the heap's best
// f exceeds the goal's distance: with a consistent heuristic every
// node whose label the canonical reconstruction may consult has
// f <= dist(goal) and is therefore settled, with its exact label, by
// the time the loop exits. Returns the number of nodes settled.
func settleGoalDense(g *graph.Graph, t *Tree, nodeDown, linkDown []bool, pq *minHeap, settled []bool, goal graph.NodeID, heur Heuristic) int {
	count := 0
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
		count++
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
				pq.push(w, nd+goalLower(heur, t.Kind, w, goal))
			}
		}
	}
	return count
}

// settleGoal is settleGoalDense on interface dispatch, for overlays
// that cannot lend dense tables: a single-pair query touches far fewer
// edges than the O(n+m) overlay compilation the dense path would
// require. Its production caller is mrc.Route under -phase2=alt, whose
// per-(configuration, destination) cfgDenied view is computed, not
// stored.
func settleGoal(g *graph.Graph, t *Tree, d graph.Denied, pq *minHeap, settled []bool, goal graph.NodeID, heur Heuristic) int {
	count := 0
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
		count++
		if v == goal {
			goalF = t.Dist[v]
			continue
		}
		dv := t.Dist[v]
		for _, he := range g.Adj(v) {
			w := he.Neighbor
			if settled[w] || d.NodeDown(w) || d.LinkDown(he.Link) {
				continue
			}
			l := g.Link(he.Link)
			nd := dv + edgeCost(l, t.Kind, w)
			if nd < t.Dist[w] {
				t.Dist[w] = nd
				pq.push(w, nd+goalLower(heur, t.Kind, w, goal))
			}
		}
	}
	return count
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
// settleGoalDense). Nodes are appended goal-first; the caller
// reverses for Forward searches. Returns false if some node has no
// exact-equality predecessor (float pathology; caller falls back).
func reconstructGoal(res *GoalResult, g *graph.Graph, t *Tree, dn, dl []bool, d graph.Denied, settled []bool, root, goal graph.NodeID) bool {
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
			if !settled[u] {
				continue
			}
			if dn != nil {
				if dl[he.Link] {
					continue
				}
			} else if d.LinkDown(he.Link) {
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
