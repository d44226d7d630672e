package spt

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Engine selects the phase-2 route engine: the full-tree Dijkstra
// path (the default) or a goal-directed single-destination A* search
// under the landmark heuristic. Both engines produce bit-identical
// routes and costs (see ComputeGoal); they differ only in how much of
// the graph a single-pair query has to settle.
type Engine uint8

const (
	// EngineDijkstra is the full shortest-path-tree engine: one
	// (incremental) Dijkstra serves every destination.
	EngineDijkstra Engine = iota
	// EngineALT is goal-directed A* with landmark triangle-inequality
	// bounds (NewALT), per Goldberg-Harrelson.
	EngineALT
)

// String returns the engine's flag spelling.
func (e Engine) String() string {
	switch e {
	case EngineDijkstra:
		return "dijkstra"
	case EngineALT:
		return "alt"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine parses a -phase2 flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "dijkstra", "":
		return EngineDijkstra, nil
	case "alt":
		return EngineALT, nil
	}
	return EngineDijkstra, fmt.Errorf("unknown -phase2 engine %q (want dijkstra or alt)", s)
}

// Heuristic supplies admissible, consistent lower bounds on
// shortest-path costs in the clean graph. Because the recovery engines
// only ever *delete* elements from the clean graph (pruned views,
// carried failure sets, configuration isolation overlays), a clean
// lower bound remains a lower bound under every overlay they present,
// so one heuristic serves all of them.
type Heuristic interface {
	// Lower returns a lower bound on the cost of the cheapest a→b path
	// in the clean graph. It must be consistent: for every link (u, w)
	// with cost c, Lower(u, b) <= c + Lower(w, b) and
	// Lower(a, u) + c >= Lower(a, w) - both follow from the triangle
	// inequality for the landmark construction in this package.
	Lower(a, b graph.NodeID) float64
}

// heuristicSlack scales every heuristic strictly below its real-valued
// bound. The admissibility and consistency arguments hold in exact
// arithmetic; the slack absorbs the ulp-level rounding of the float
// evaluation so that no bound ever exceeds a true distance by a
// rounding error. Scaling a consistent heuristic by a constant in
// (0, 1] keeps it consistent.
const heuristicSlack = 1 - 1e-9

// DefaultLandmarks is the landmark count NewALT uses when k <= 0,
// inside the ~8-16 range where ALT bounds saturate on Table II-sized
// topologies.
const DefaultLandmarks = 12

// ALT is the landmark heuristic of Goldberg-Harrelson: for a landmark
// L, the triangle inequality gives d(a,b) >= d(a,L) - d(b,L) and
// d(a,b) >= d(L,b) - d(L,a); the heuristic is the max of those bounds
// over all landmarks, clamped at 0. The distance vectors are computed
// once on the clean graph; under the recovery engines' delete-only
// overlays true distances only grow, so the clean bounds stay
// admissible (and consistency over the surviving links is inherited
// from the clean graph).
type ALT struct {
	landmarks []graph.NodeID
	// to[i][v] is the clean cost v -> landmarks[i] (reverse SPT);
	// from[i][v] is the clean cost landmarks[i] -> v (forward SPT).
	to   [][]float64
	from [][]float64
}

// NewALT picks k landmarks (DefaultLandmarks when k <= 0, capped at
// the node count) by farthest-point sampling over clean graph
// distances and precomputes their forward and reverse distance
// vectors. The clean provider, when non-nil, supplies the cached
// pre-failure forward SPT rooted at a node (RTR's per-node clean-tree
// cache); the returned trees must outlive the ALT and are read only.
// Selection is deterministic: ties break on the smaller node ID, and
// unreachable nodes rank as farthest so disconnected components get a
// landmark first.
func NewALT(g *graph.Graph, k int, clean func(graph.NodeID) *Tree) *ALT {
	n := g.NumNodes()
	h := &ALT{}
	if n == 0 {
		return h
	}
	if k <= 0 {
		k = DefaultLandmarks
	}
	if k > n {
		k = n
	}
	forward := func(v graph.NodeID) []float64 {
		if clean != nil {
			return clean(v).Dist
		}
		return Compute(g, v, graph.Nothing).Dist
	}
	// farther ranks candidate distances for the sampling: unreachable
	// (+Inf) beats any finite distance, larger beats smaller.
	farther := func(a, b float64) bool {
		ai, bi := math.IsInf(a, 1), math.IsInf(b, 1)
		if ai != bi {
			return ai
		}
		return a > b
	}
	// Seed: the node farthest from node 0.
	d0 := forward(0)
	cur := graph.NodeID(0)
	for v := 1; v < n; v++ {
		if farther(d0[v], d0[cur]) {
			cur = graph.NodeID(v)
		}
	}
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	chosen := make([]bool, n)
	for len(h.landmarks) < k {
		h.landmarks = append(h.landmarks, cur)
		chosen[cur] = true
		fd := forward(cur)
		h.from = append(h.from, fd)
		h.to = append(h.to, ComputeReverse(g, cur, graph.Nothing).Dist)
		for v, dv := range fd {
			if dv < minD[v] {
				minD[v] = dv
			}
		}
		minD[cur] = 0
		next := -1
		for v := 0; v < n; v++ {
			if chosen[v] {
				continue
			}
			if next < 0 || farther(minD[v], minD[next]) {
				next = v
			}
		}
		if next < 0 || minD[next] == 0 {
			break // every remaining node coincides with a landmark
		}
		cur = graph.NodeID(next)
	}
	return h
}

// Landmarks returns the selected landmark nodes in selection order.
// The returned slice is shared and must not be modified.
func (h *ALT) Landmarks() []graph.NodeID { return h.landmarks }

// Lower implements Heuristic. Landmark terms involving an unreachable
// (+Inf) distance are skipped: dropping a term only weakens the lower
// bound, and on undirected graphs reachability is a component
// property, so adjacent nodes always agree on which terms exist -
// which is what keeps the max consistent.
func (h *ALT) Lower(a, b graph.NodeID) float64 {
	best := 0.0
	for i := range h.landmarks {
		ta, tb := h.to[i][a], h.to[i][b]
		if !math.IsInf(ta, 1) && !math.IsInf(tb, 1) {
			if d := ta - tb; d > best {
				best = d
			}
		}
		fa, fb := h.from[i][a], h.from[i][b]
		if !math.IsInf(fa, 1) && !math.IsInf(fb, 1) {
			if d := fb - fa; d > best {
				best = d
			}
		}
	}
	return best * heuristicSlack
}
