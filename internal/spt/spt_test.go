package spt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// grid returns a w x h grid graph; node (x,y) has ID y*w+x.
func grid(w, h int) *graph.Graph {
	g := graph.New(w * h)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.MustAddLink(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				g.MustAddLink(id(x, y), id(x, y+1))
			}
		}
	}
	return g
}

func TestComputeLine(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		g.MustAddLink(graph.NodeID(i), graph.NodeID(i+1))
	}
	tr := Compute(g, 0, graph.Nothing)
	for v := 0; v < 4; v++ {
		if got := tr.Dist[v]; got != float64(v) {
			t.Errorf("Dist[%d] = %v, want %d", v, got, v)
		}
	}
	nodes, ok := tr.PathNodes(3)
	if !ok || len(nodes) != 4 || nodes[0] != 0 || nodes[3] != 3 {
		t.Errorf("PathNodes(3) = %v, %v", nodes, ok)
	}
	links, ok := tr.PathLinks(3)
	if !ok || len(links) != 3 || links[0] != 0 || links[2] != 2 {
		t.Errorf("PathLinks(3) = %v, %v", links, ok)
	}
	if h, ok := tr.Hops(3); !ok || h != 3 {
		t.Errorf("Hops(3) = %d, %v", h, ok)
	}
	if c, ok := tr.CostTo(2); !ok || c != 2 {
		t.Errorf("CostTo(2) = %v, %v", c, ok)
	}
}

func TestComputeUnreachable(t *testing.T) {
	g := graph.New(3)
	g.MustAddLink(0, 1)
	// node 2 is isolated
	tr := Compute(g, 0, graph.Nothing)
	if tr.Reachable(2) {
		t.Error("isolated node must be unreachable")
	}
	if _, ok := tr.PathNodes(2); ok {
		t.Error("PathNodes of unreachable node must report false")
	}
	if _, ok := tr.PathLinks(2); ok {
		t.Error("PathLinks of unreachable node must report false")
	}
	if _, ok := tr.Hops(2); ok {
		t.Error("Hops of unreachable node must report false")
	}
	if !tr.Reachable(0) {
		t.Error("root is reachable from itself")
	}
}

func TestComputeDownRoot(t *testing.T) {
	g := graph.New(2)
	g.MustAddLink(0, 1)
	m := graph.NewMask(g)
	m.FailNode(0)
	tr := Compute(g, 0, m)
	if tr.Reachable(0) || tr.Reachable(1) {
		t.Error("tree rooted at a failed node must be empty")
	}
}

func TestComputePicksShorterOfTwoRoutes(t *testing.T) {
	// 0-1-2 with costs 1+1, plus direct 0-2 with cost 5: go via 1.
	g := graph.New(3)
	g.MustAddLink(0, 1)
	g.MustAddLink(1, 2)
	direct, _ := g.AddLinkCost(0, 2, 5, 5)
	tr := Compute(g, 0, graph.Nothing)
	if tr.Dist[2] != 2 {
		t.Errorf("Dist[2] = %v, want 2", tr.Dist[2])
	}
	// Remove the middle link: now the direct link wins.
	m := graph.NewMask(g)
	m.FailLink(1)
	tr = Compute(g, 0, m)
	if tr.Dist[2] != 5 || graph.LinkID(tr.ParentLink[2]) != direct {
		t.Errorf("after cut: Dist[2]=%v parentLink=%d, want 5 via direct", tr.Dist[2], tr.ParentLink[2])
	}
}

func TestAsymmetricCostsForwardVsReverse(t *testing.T) {
	// 0 -> 1 costs 1, 1 -> 0 costs 10.
	g := graph.New(2)
	if _, err := g.AddLinkCost(0, 1, 1, 10); err != nil {
		t.Fatal(err)
	}
	fwd := Compute(g, 0, graph.Nothing)
	if fwd.Dist[1] != 1 {
		t.Errorf("forward Dist[1] = %v, want 1 (cost 0->1)", fwd.Dist[1])
	}
	rev := ComputeReverse(g, 0, graph.Nothing)
	if rev.Dist[1] != 10 {
		t.Errorf("reverse Dist[1] = %v, want 10 (cost 1->0)", rev.Dist[1])
	}
}

func TestReverseTreeNextHops(t *testing.T) {
	g := grid(3, 3) // destination: center node 4
	tr := ComputeReverse(g, 4, graph.Nothing)
	if _, ok := tr.NextHop(4); ok {
		t.Error("the root has no next hop")
	}
	nh, ok := tr.NextHop(0)
	if !ok || (nh != 1 && nh != 3) {
		t.Errorf("NextHop(0) = %v, %v; want a grid neighbor of 0 toward 4", nh, ok)
	}
	// Path from corner 0 to 4 must have 2 hops.
	nodes, ok := tr.PathNodes(0)
	if !ok || len(nodes) != 3 || nodes[0] != 0 || nodes[2] != 4 {
		t.Errorf("PathNodes(0) = %v", nodes)
	}
}

func TestReverseTreeIsRoutingTable(t *testing.T) {
	// Following NextHop from any node must reach the destination in
	// Dist hops (hop-count costs).
	g := grid(4, 4)
	dst := graph.NodeID(15)
	tr := ComputeReverse(g, dst, graph.Nothing)
	for v := 0; v < g.NumNodes(); v++ {
		cur := graph.NodeID(v)
		steps := 0
		for cur != dst {
			nh, ok := tr.NextHop(cur)
			if !ok {
				t.Fatalf("node %d has no next hop toward %d", cur, dst)
			}
			if _, ok := g.LinkBetween(cur, nh); !ok {
				t.Fatalf("next hop %d is not adjacent to %d", nh, cur)
			}
			cur = nh
			steps++
			if steps > g.NumNodes() {
				t.Fatalf("routing loop starting at %d", v)
			}
		}
		if float64(steps) != tr.Dist[v] {
			t.Errorf("node %d: walked %d hops, Dist = %v", v, steps, tr.Dist[v])
		}
	}
}

func TestClone(t *testing.T) {
	g := grid(2, 2)
	tr := Compute(g, 0, graph.Nothing)
	c := tr.Clone()
	c.Dist[3] = 99
	c.Parent[3] = None
	if tr.Dist[3] == 99 || tr.Parent[3] == None {
		t.Error("Clone must be independent")
	}
}

func treesEqualDist(a, b *Tree) bool {
	if len(a.Dist) != len(b.Dist) {
		return false
	}
	for i := range a.Dist {
		ai, bi := a.Dist[i], b.Dist[i]
		if math.IsInf(ai, 1) != math.IsInf(bi, 1) {
			return false
		}
		if !math.IsInf(ai, 1) && math.Abs(ai-bi) > 1e-9 {
			return false
		}
	}
	return true
}

func TestRecomputeSimpleCut(t *testing.T) {
	g := grid(3, 3)
	base := graph.NewMask(g)
	tr := Compute(g, 0, base)
	extra := graph.NewMask(g)
	// Cut the link on 0's row.
	id, ok := g.LinkBetween(0, 1)
	if !ok {
		t.Fatal("missing grid link")
	}
	extra.FailLink(id)
	inc := Recompute(g, tr, base, extra)
	full := Compute(g, 0, graph.Union{X: base, Y: extra})
	if !treesEqualDist(inc, full) {
		t.Errorf("incremental dist table diverges from full recompute:\ninc=%v\nfull=%v", inc.Dist, full.Dist)
	}
}

func TestRecomputeRootDown(t *testing.T) {
	g := grid(2, 2)
	tr := Compute(g, 0, graph.Nothing)
	extra := graph.NewMask(g)
	extra.FailNode(0)
	inc := Recompute(g, tr, graph.Nothing, extra)
	for v := 0; v < g.NumNodes(); v++ {
		if inc.Reachable(graph.NodeID(v)) {
			t.Errorf("node %d reachable in tree with failed root", v)
		}
	}
}

func TestRecomputeNoChanges(t *testing.T) {
	g := grid(3, 3)
	tr := Compute(g, 4, graph.Nothing)
	inc := Recompute(g, tr, graph.Nothing, graph.NewMask(g))
	if !treesEqualDist(inc, tr) {
		t.Error("recompute with no extra failures must be a no-op")
	}
}

// randConnectedGraph builds a random connected graph with n nodes:
// a random spanning tree plus extra random links.
func randConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := graph.NodeID(perm[i])
		b := graph.NodeID(perm[rng.Intn(i)])
		cost := 1 + rng.Float64()*9
		if _, err := g.AddLinkCost(a, b, cost, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		a := graph.NodeID(rng.Intn(n))
		b := graph.NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if _, err := g.AddLinkCost(a, b, 1+rng.Float64()*9, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
	}
	return g
}

// Property: incremental recompute equals the heapless cold build bit
// for bit, for both tree kinds, under random delete sets.
func TestRecomputeMatchesFullProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	f := func() bool {
		n := 5 + rng.Intn(30)
		g := randConnectedGraph(rng, n, n)
		base := graph.NewMask(g)
		// A few pre-existing failures in the base scenario.
		for i := 0; i < n/5; i++ {
			base.FailLink(graph.LinkID(rng.Intn(g.NumLinks())))
		}
		root := graph.NodeID(rng.Intn(n))
		extra := graph.NewMask(g)
		for i := 0; i < 1+rng.Intn(5); i++ {
			extra.FailLink(graph.LinkID(rng.Intn(g.NumLinks())))
		}
		for i := 0; i < rng.Intn(3); i++ {
			v := graph.NodeID(rng.Intn(n))
			if v != root {
				extra.FailNode(v)
			}
		}
		for _, kind := range []Kind{Forward, Reverse} {
			tr := computeKind(g, root, base, kind)
			inc := Recompute(g, tr, base, extra)
			requireIdentical(t, referenceTree(g, root, graph.Union{X: base, Y: extra}, kind), inc, "recompute")
			// Parent chains in the incremental tree must reproduce the
			// claimed distances using live links only.
			combined := graph.Union{X: base, Y: extra}
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				if !inc.Reachable(id) || id == root {
					continue
				}
				links, ok := inc.PathLinks(id)
				if !ok {
					return false
				}
				for _, lid := range links {
					if combined.LinkDown(lid) {
						return false
					}
					l := g.Link(lid)
					if combined.NodeDown(l.A) || combined.NodeDown(l.B) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: path cost claimed by the tree equals the sum of directional
// link costs along the extracted path.
func TestPathCostConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		n := 4 + rng.Intn(20)
		g := randConnectedGraph(rng, n, n/2)
		root := graph.NodeID(rng.Intn(n))
		for _, kind := range []Kind{Forward, Reverse} {
			var tr *Tree
			if kind == Forward {
				tr = Compute(g, root, graph.Nothing)
			} else {
				tr = ComputeReverse(g, root, graph.Nothing)
			}
			for v := 0; v < n; v++ {
				id := graph.NodeID(v)
				nodes, ok := tr.PathNodes(id)
				if !ok {
					continue
				}
				links, _ := tr.PathLinks(id)
				if len(links) != len(nodes)-1 {
					return false
				}
				sum := 0.0
				for i, lid := range links {
					l := g.Link(lid)
					from := nodes[i]
					if !l.HasEndpoint(from) || !l.HasEndpoint(nodes[i+1]) {
						return false
					}
					sum += l.CostFrom(from)
				}
				if math.Abs(sum-tr.Dist[v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestHeapOrdering checks that the heap pops in the canonical
// (dist, node) order: first a plain run of distinct distances, then
// random interleaved pushes and pops with many equal distances and
// repeated node IDs, where every pop must return the smallest live
// entry of a sorted reference multiset.
func TestHeapOrdering(t *testing.T) {
	h := new(minHeap)
	h.reset(0)
	vals := []float64{5, 3, 8, 1, 9, 2, 7}
	for i, d := range vals {
		h.push(graph.NodeID(i), d)
	}
	if h.len() != len(vals) {
		t.Fatalf("len = %d, want %d", h.len(), len(vals))
	}
	prev := math.Inf(-1)
	for {
		_, d, ok := h.pop()
		if !ok {
			break
		}
		if d < prev {
			t.Fatalf("heap popped out of order: %v after %v", d, prev)
		}
		prev = d
	}
	if _, _, ok := h.pop(); ok {
		t.Error("pop on empty heap must report false")
	}

	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		h.reset(rng.Intn(8))
		var live []heapEntry // reference multiset, kept sorted
		for op := 0; op < 300; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				v, d, ok := h.pop()
				if !ok || v != live[0].node || d != live[0].dist {
					t.Fatalf("trial %d op %d: pop = (%v, %d, %v), want (%v, %d)", trial, op, d, v, ok, live[0].dist, live[0].node)
				}
				live = live[1:]
				continue
			}
			e := heapEntry{dist: float64(rng.Intn(6)), node: graph.NodeID(rng.Intn(5))}
			h.push(e.node, e.dist)
			i := sort.Search(len(live), func(i int) bool {
				return e.dist < live[i].dist || e.dist == live[i].dist && e.node < live[i].node
			})
			live = append(live[:i], append([]heapEntry{e}, live[i:]...)...)
			if h.len() != len(live) {
				t.Fatalf("trial %d op %d: len = %d, want %d", trial, op, h.len(), len(live))
			}
		}
		for len(live) > 0 {
			v, d, _ := h.pop()
			if v != live[0].node || d != live[0].dist {
				t.Fatalf("trial %d drain: pop = (%v, %d), want (%v, %d)", trial, d, v, live[0].dist, live[0].node)
			}
			live = live[1:]
		}
	}
}
