package spt

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// opaqueDenied hides a mask behind an interface with no dense tables,
// forcing the workspace down the compile-into-scratch path.
type opaqueDenied struct{ m *graph.Mask }

func (d opaqueDenied) NodeDown(v graph.NodeID) bool  { return d.m.NodeDown(v) }
func (d opaqueDenied) LinkDown(id graph.LinkID) bool { return d.m.LinkDown(id) }

// settle is the reference interface-dispatch Dijkstra main loop: the
// generic twin of settleDense, consulting the overlay through
// graph.Denied on every edge. Production paths go through settleDense;
// the differential tests below assert the two are bit-identical.
func settle(g *graph.Graph, t *Tree, d graph.Denied, h *minHeap, scope []bool) {
	for {
		v, dv, ok := h.pop()
		if !ok {
			return
		}
		if dv > t.Dist[v] {
			continue // stale entry
		}
		for _, he := range g.Adj(v) {
			w := he.Neighbor
			if scope != nil && !scope[w] {
				continue
			}
			if d.NodeDown(w) || d.LinkDown(he.Link) {
				continue
			}
			l := g.Link(he.Link)
			nd := dv + edgeCost(l, t.Kind, w)
			if nd < t.Dist[w] {
				t.Dist[w] = nd
				t.Parent[w] = int32(v)
				t.ParentLink[w] = int32(he.Link)
				h.push(w, nd)
			}
		}
	}
}

// computeGeneric is a cold Dijkstra through the reference settle loop —
// interface dispatch on every edge, no dense compilation. It is the
// oracle the devirtualized production path must match bit for bit.
func computeGeneric(g *graph.Graph, root graph.NodeID, d graph.Denied, kind Kind) *Tree {
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
	var h minHeap
	h.reset(n)
	h.push(root, 0)
	settle(g, t, d, &h, nil)
	return t
}

func requireTreesIdentical(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	if got.Kind != want.Kind || got.Root != want.Root {
		t.Fatalf("%s: tree identity mismatch", label)
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] || got.ParentLink[v] != want.ParentLink[v] {
			t.Fatalf("%s: node %d: got (dist %v, parent %d, link %d), want (%v, %d, %d)",
				label, v,
				got.Dist[v], got.Parent[v], got.ParentLink[v],
				want.Dist[v], want.Parent[v], want.ParentLink[v])
		}
	}
}

// Property: the dense fast path (production Compute/ComputeReverse)
// produces trees bit-identical to the reference interface-dispatch
// settle loop, for borrowed tables (Mask), compiled opaque overlays,
// and the all-up overlay, on random weighted graphs.
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
			want := computeGeneric(g, root, o.d, Forward)
			requireTreesIdentical(t, o.label+"/forward", Compute(g, root, o.d), want)
			want = computeGeneric(g, root, o.d, Reverse)
			requireTreesIdentical(t, o.label+"/reverse", ComputeReverse(g, root, o.d), want)
		}
	}
}
