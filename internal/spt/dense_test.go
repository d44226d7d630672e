package spt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// opaqueDenied hides a mask behind an interface with no dense tables,
// forcing the workspace down the compile-into-scratch path.
type opaqueDenied struct{ m *graph.Mask }

func (d opaqueDenied) NodeDown(v graph.NodeID) bool  { return d.m.NodeDown(v) }
func (d opaqueDenied) LinkDown(id graph.LinkID) bool { return d.m.LinkDown(id) }

// referenceTree is the oracle every production tree must match bit for
// bit: a cold Dijkstra with no heap, no dense tables and no half-edge
// costs. Each round scans all nodes for the unsettled one with the
// smallest (dist, node) label, consults the overlay through
// graph.Denied and reads costs from the link, so a fault in the heap,
// the overlay compilation or the half-edge costs cannot hide in
// its own reference. O(n²), for small test graphs only.
func referenceTree(g *graph.Graph, root graph.NodeID, d graph.Denied, kind Kind) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Kind:       kind,
		Root:       root,
		Dist:       make([]float64, n),
		Parent:     make([]int32, n),
		ParentLink: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
		t.Parent[i] = None
		t.ParentLink[i] = None
	}
	if d.NodeDown(root) {
		return t
	}
	t.Dist[root] = 0
	settled := make([]bool, n)
	for {
		v := -1
		for u := 0; u < n; u++ {
			// Ascending scan with strict <: equal distances keep the
			// smaller node ID.
			if !settled[u] && t.Dist[u] != Inf && (v < 0 || t.Dist[u] < t.Dist[v]) {
				v = u
			}
		}
		if v < 0 {
			return t
		}
		settled[v] = true
		for _, he := range g.Adj(graph.NodeID(v)) {
			w := he.Neighbor
			if settled[w] || d.NodeDown(w) || d.LinkDown(he.Link) {
				continue
			}
			nd := t.Dist[v] + edgeCost(g.Link(he.Link), kind, w)
			if nd < t.Dist[w] {
				t.Dist[w] = nd
				t.Parent[w] = int32(v)
				t.ParentLink[w] = int32(he.Link)
			}
		}
	}
}

// edgeCost returns the cost of using link l to extend a tree of the
// given kind from tree node u to frontier node w (the link's other
// endpoint): forward trees pay u→w, reverse trees pay w→u because the
// final path runs from w toward the root.
func edgeCost(l graph.Link, kind Kind, w graph.NodeID) float64 {
	if kind == Forward {
		return l.CostFrom(l.Other(w))
	}
	return l.CostFrom(w)
}

// Property: the dense fast path (production Compute/ComputeReverse)
// produces trees bit-identical to the heapless reference, for borrowed
// tables (Mask), compiled opaque overlays, and the all-up overlay, on
// random weighted graphs.
func TestDenseSettleMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(30)
		g := randConnectedGraph(rng, n, rng.Intn(40))
		m := graph.NewMask(g)
		for v := 0; v < n; v++ {
			if rng.Intn(5) == 0 {
				m.FailNode(graph.NodeID(v))
			}
		}
		for id := 0; id < g.NumLinks(); id++ {
			if rng.Intn(5) == 0 {
				m.FailLink(graph.LinkID(id))
			}
		}
		overlays := []struct {
			label string
			d     graph.Denied
		}{
			{"mask", m},                 // borrowed tables
			{"opaque", opaqueDenied{m}}, // compiled into scratch
			{"nothing", graph.Nothing},  // zeroed scratch
		}
		root := graph.NodeID(rng.Intn(n))
		for _, o := range overlays {
			requireIdentical(t, referenceTree(g, root, o.d, Forward), Compute(g, root, o.d), o.label+"/forward")
			requireIdentical(t, referenceTree(g, root, o.d, Reverse), ComputeReverse(g, root, o.d), o.label+"/reverse")
		}
	}
}

// tieCosts draws link costs that make equal-cost paths common, as the
// paper's unit-cost worlds do.
var tieCosts = []struct {
	label string
	draw  func(rng *rand.Rand) (ab, ba float64)
}{
	{"unit", func(*rand.Rand) (float64, float64) { return 1, 1 }},
	{"one-or-two", func(rng *rand.Rand) (float64, float64) {
		c := float64(1 + rng.Intn(2))
		return c, c
	}},
	{"asymmetric-int", func(rng *rand.Rand) (float64, float64) {
		return float64(1 + rng.Intn(3)), float64(1 + rng.Intn(3))
	}},
}

// tieGraph builds a connected multigraph whose costs come from draw,
// with extra chords and some links doubled by a parallel link of its
// own draw.
func tieGraph(rng *rand.Rand, n int, draw func(*rand.Rand) (float64, float64)) *graph.Graph {
	g := graph.New(n)
	add := func(a, b graph.NodeID) {
		ab, ba := draw(rng)
		if _, err := g.AddLinkCost(a, b, ab, ba); err != nil {
			panic(err)
		}
	}
	for v := 1; v < n; v++ {
		add(graph.NodeID(rng.Intn(v)), graph.NodeID(v))
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		if a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); a != b {
			add(a, b)
		}
	}
	for id := g.NumLinks() - 1; id >= 0; id-- {
		if rng.Intn(4) == 0 {
			l := g.Link(graph.LinkID(id))
			add(l.A, l.B)
		}
	}
	return g
}

// Property: on tie-heavy graphs (unit, {1,2} and asymmetric integer
// costs, parallel links), cold builds and both incremental entry
// points reproduce the heapless reference bit for bit, equal-cost
// tie-breaks included, for both tree kinds, with and without a base
// overlay, under link and node deletions, and again when a recompute's
// output is recomputed under further deletions.
func TestTieHeavyTreesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ws := GetWorkspace()
	defer ws.Release()
	for _, costs := range tieCosts {
		for trial := 0; trial < 80; trial++ {
			n := 2 + rng.Intn(40)
			g := tieGraph(rng, n, costs.draw)
			root := graph.NodeID(rng.Intn(n))
			bases := []graph.Denied{graph.Nothing, randMask(rng, g, rng.Intn(3), rng.Intn(4))}
			extra := randMask(rng, g, rng.Intn(3), 1+rng.Intn(5))
			more := randMask(rng, g, rng.Intn(2), 1+rng.Intn(4))
			for _, base := range bases {
				label := fmt.Sprintf("%s trial %d base %v", costs.label, trial, base != graph.Nothing)
				requireMatchesReference(t, ws, g, root, base, extra, more, label)
			}
		}
	}
}

// TestRecomputeSeedTieBreaks pins the rules by which Recompute labels
// a region node from its unaffected neighbours, on hand-built graphs
// where one rule decides node v's parent link. Every graph has root 0
// and link 0 from the root to node 1, whose subtree holds v; the tree
// is built with everything up, then link 0 fails.
func TestRecomputeSeedTieBreaks(t *testing.T) {
	type link struct {
		a, b   graph.NodeID
		ab, ba float64
	}
	cases := []struct {
		name  string
		n     int
		links []link // link i gets ID i
		v     graph.NodeID
		want  [2]int32 // v's parent link in the forward and the reverse tree
	}{
		{
			// Unaffected 3 seeds v at 4 over link 4; region node 2
			// (relabelled to 3 over link 2) pops first at (3, 2) and
			// takes v over on its first parallel link.
			name: "region parent pops before the seeding neighbour",
			n:    5,
			links: []link{{0, 1, 1, 1}, {1, 2, 1, 1}, {0, 2, 3, 3}, {0, 3, 3, 3},
				{3, 4, 1, 1}, {2, 4, 1, 1}, {2, 4, 1, 1}},
			v:    4,
			want: [2]int32{5, 5},
		},
		{
			// 2 at distance 2 and 3 at distance 1 both reach v at 3;
			// 3 comes first in (dist, node) order, though its link
			// comes later in Adj(v).
			name: "the nearer neighbour wins over the lower ID",
			n:    6,
			links: []link{{0, 1, 1, 1}, {1, 5, 1, 1}, {0, 4, 1, 1}, {4, 2, 1, 1},
				{0, 3, 1, 1}, {2, 5, 1, 1}, {3, 5, 2, 2}},
			v:    5,
			want: [2]int32{6, 6},
		},
		{
			// 2 and 3 are both at distance 1 and reach v at 2; 3's
			// link comes first in Adj(v).
			name: "the lower ID wins at an equal distance",
			n:    5,
			links: []link{{0, 1, 1, 1}, {1, 4, 1, 1}, {0, 3, 1, 1}, {0, 2, 1, 1},
				{3, 4, 1, 1}, {2, 4, 1, 1}},
			v:    4,
			want: [2]int32{5, 5},
		},
		{
			// Three parallel links from 2: the costlier one first,
			// then two equal ones.
			name: "the lowest link ID wins among equal parallel links",
			n:    4,
			links: []link{{0, 1, 1, 1}, {1, 3, 1, 1}, {0, 2, 1, 1},
				{2, 3, 3, 3}, {2, 3, 2, 2}, {2, 3, 2, 2}},
			v:    3,
			want: [2]int32{4, 4},
		},
		{
			// 2→v costs 1 and 3→v costs 3, v→2 costs 3 and v→3 costs 1:
			// forward trees pay u→v, reverse trees v→u.
			name: "forward and reverse seeds pay opposite directions",
			n:    5,
			links: []link{{0, 1, 1, 1}, {1, 4, 1, 1}, {0, 2, 1, 1}, {0, 3, 1, 1},
				{2, 4, 1, 3}, {3, 4, 3, 1}},
			v:    4,
			want: [2]int32{4, 5},
		},
	}
	ws := GetWorkspace()
	defer ws.Release()
	for _, c := range cases {
		g := graph.New(c.n)
		for _, l := range c.links {
			if _, err := g.AddLinkCost(l.a, l.b, l.ab, l.ba); err != nil {
				t.Fatal(err)
			}
		}
		extra := graph.NewMask(g)
		extra.FailLink(0)
		requireMatchesReference(t, ws, g, 0, graph.Nothing, extra, graph.Nothing, c.name)
		for i, kind := range []Kind{Forward, Reverse} {
			got := Recompute(g, computeKind(g, 0, graph.Nothing, kind), graph.Nothing, extra)
			if pl := got.ParentLink[c.v]; pl != c.want[i] {
				t.Errorf("%s kind %d: v's parent link %d, want %d", c.name, kind, pl, c.want[i])
			}
		}
	}
}

// computeKind runs the production cold build of the given kind.
func computeKind(g *graph.Graph, root graph.NodeID, d graph.Denied, kind Kind) *Tree {
	if kind == Forward {
		return Compute(g, root, d)
	}
	return ComputeReverse(g, root, d)
}

// FuzzRecompute builds a small integer-cost multigraph and three
// failure masks from the input and checks that the cold build under
// base, Recompute and Workspace.Recompute under base+extra, and a
// second recompute of their output under base+extra+more equal the
// heapless reference bit for bit, for both tree kinds.
//
// topo: byte 0 sizes the graph (2..17 nodes), then each 3-byte group
// (a, b, costs) adds a link a%n–b%n (self loops skipped) with costs
// 1+costs&3 forward and 1+(costs>>2)&3 back. In a mask byte, the high
// bit fails node (b&0x7f)%n, otherwise link b%m.
func FuzzRecompute(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 0, 0, 2, 5}, []byte{}, []byte{1}, []byte{}, uint8(0))
	f.Add([]byte{6, 0, 1, 0, 0, 1, 0, 1, 2, 1, 2, 3, 4, 3, 4, 0, 4, 5, 0, 5, 0, 0, 0, 3, 1}, []byte{2}, []byte{0x83, 0}, []byte{4}, uint8(5))
	f.Add([]byte{9, 0, 1, 7, 1, 2, 2, 2, 3, 9, 3, 4, 0, 4, 5, 13, 5, 6, 0, 6, 7, 3, 7, 8, 0, 8, 0, 1, 0, 4, 0, 2, 6, 4}, []byte{0x81, 3}, []byte{5, 0x86, 7}, []byte{0x88, 9}, uint8(2))
	f.Fuzz(func(t *testing.T, topo, baseBytes, extraBytes, moreBytes []byte, rootByte uint8) {
		if len(topo) == 0 {
			return
		}
		n := 2 + int(topo[0])%16
		g := graph.New(n)
		for i := 1; i+2 < len(topo) && i < 1+3*64; i += 3 {
			a, b := graph.NodeID(int(topo[i])%n), graph.NodeID(int(topo[i+1])%n)
			if a == b {
				continue
			}
			c := topo[i+2]
			if _, err := g.AddLinkCost(a, b, float64(1+c&3), float64(1+(c>>2)&3)); err != nil {
				t.Fatal(err)
			}
		}
		mask := func(bs []byte) *graph.Mask {
			m := graph.NewMask(g)
			for _, b := range bs {
				switch {
				case b&0x80 != 0:
					m.FailNode(graph.NodeID(int(b&0x7f) % n))
				case g.NumLinks() > 0:
					m.FailLink(graph.LinkID(int(b) % g.NumLinks()))
				}
			}
			return m
		}
		base, extra, more := mask(baseBytes), mask(extraBytes), mask(moreBytes)
		root := graph.NodeID(int(rootByte) % n)
		ws := GetWorkspace()
		defer ws.Release()
		requireMatchesReference(t, ws, g, root, base, extra, more, "fuzz")
	})
}

// requireMatchesReference asserts, for both tree kinds, that the cold
// build under base, both incremental entry points under base+extra,
// and both again from that output under base+extra+more (the chained
// updates routing.RecomputeTablesUnder makes) equal the heapless
// reference bit for bit.
func requireMatchesReference(t *testing.T, ws *Workspace, g *graph.Graph, root graph.NodeID, base, extra, more graph.Denied, label string) {
	t.Helper()
	both := graph.Union{X: base, Y: extra}
	all := graph.Union{X: both, Y: more}
	for _, kind := range []Kind{Forward, Reverse} {
		label := fmt.Sprintf("%s kind %d", label, kind)
		t0 := computeKind(g, root, base, kind)
		requireIdentical(t, referenceTree(g, root, base, kind), t0, label+" cold")
		want := referenceTree(g, root, both, kind)
		t1 := Recompute(g, t0, base, extra)
		requireIdentical(t, want, t1, label+" owned recompute")
		s1 := ws.Recompute(g, t0, base, extra)
		requireIdentical(t, want, s1, label+" scratch recompute")
		want = referenceTree(g, root, all, kind)
		requireIdentical(t, want, Recompute(g, t1, both, more), label+" owned chained recompute")
		requireIdentical(t, want, ws.Recompute(g, s1, both, more), label+" scratch chained recompute")
	}
}
