package spt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randGraph builds a connected-ish random multigraph with random
// (possibly asymmetric) positive costs.
func randGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		u := graph.NodeID(rng.Intn(v))
		if _, err := g.AddLinkCost(u, graph.NodeID(v), 1+rng.Float64()*9, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if _, err := g.AddLinkCost(a, b, 1+rng.Float64()*9, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
	}
	return g
}

// randMask fails a few random nodes and links.
func randMask(rng *rand.Rand, g *graph.Graph, nodes, links int) *graph.Mask {
	m := graph.NewMask(g)
	for i := 0; i < nodes; i++ {
		m.FailNode(graph.NodeID(rng.Intn(g.NumNodes())))
	}
	for i := 0; i < links; i++ {
		m.FailLink(graph.LinkID(rng.Intn(g.NumLinks())))
	}
	return m
}

// requireIdentical asserts two trees are bit-for-bit identical in
// Dist/Parent/ParentLink (the differential-test contract: pooled
// buffers must never leak stale state into results).
func requireIdentical(t *testing.T, want, got *Tree, label string) {
	t.Helper()
	if want.Kind != got.Kind || want.Root != got.Root {
		t.Fatalf("%s: kind/root mismatch: (%v,%d) vs (%v,%d)", label, want.Kind, want.Root, got.Kind, got.Root)
	}
	if len(want.Dist) != len(got.Dist) {
		t.Fatalf("%s: size mismatch: %d vs %d", label, len(want.Dist), len(got.Dist))
	}
	for v := range want.Dist {
		if want.Dist[v] != got.Dist[v] && !(want.Dist[v] != want.Dist[v] && got.Dist[v] != got.Dist[v]) {
			t.Fatalf("%s: Dist[%d] = %v, want %v", label, v, got.Dist[v], want.Dist[v])
		}
		if want.Parent[v] != got.Parent[v] {
			t.Fatalf("%s: Parent[%d] = %d, want %d", label, v, got.Parent[v], want.Parent[v])
		}
		if want.ParentLink[v] != got.ParentLink[v] {
			t.Fatalf("%s: ParentLink[%d] = %d, want %d", label, v, got.ParentLink[v], want.ParentLink[v])
		}
	}
}

// TestWorkspaceDifferentialCompute checks that one workspace reused
// across many graphs of varying sizes, roots, kinds, and failure masks
// yields trees identical to fresh computations — the stale-buffer
// differential test.
func TestWorkspaceDifferentialCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := GetWorkspace()
	defer ws.Release()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(80)
		g := randGraph(rng, n, rng.Intn(2*n))
		d := randMask(rng, g, rng.Intn(3), rng.Intn(5))
		root := graph.NodeID(rng.Intn(n))
		label := fmt.Sprintf("trial %d (n=%d root=%d)", trial, n, root)

		requireIdentical(t, Compute(g, root, d), ws.Compute(g, root, d), label+" forward")
		requireIdentical(t, ComputeReverse(g, root, d), ws.ComputeReverse(g, root, d), label+" reverse")
	}
}

// TestWorkspaceDifferentialRecompute checks the incremental update
// against the heapless reference under the combined failure set,
// through both the package-level and the workspace entry points.
func TestWorkspaceDifferentialRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := GetWorkspace()
	defer ws.Release()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(80)
		g := randGraph(rng, n, rng.Intn(2*n))
		base := randMask(rng, g, 0, rng.Intn(3))
		extra := randMask(rng, g, rng.Intn(2), rng.Intn(6))
		root := graph.NodeID(rng.Intn(n))
		label := fmt.Sprintf("trial %d (n=%d root=%d)", trial, n, root)

		for _, kind := range []Kind{Forward, Reverse} {
			t0 := computeKind(g, root, base, kind)
			want := referenceTree(g, root, graph.Union{X: base, Y: extra}, kind)
			requireIdentical(t, want, Recompute(g, t0, base, extra), label+" owned recompute")
			requireIdentical(t, want, ws.Recompute(g, t0, base, extra), label+" scratch recompute")
		}
	}
}

// TestWorkspaceRecomputeFromOwnScratch covers the chained case: the
// tree passed to Workspace.Recompute is the workspace's own scratch
// tree from the preceding Compute.
func TestWorkspaceRecomputeFromOwnScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := GetWorkspace()
	defer ws.Release()
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		g := randGraph(rng, n, rng.Intn(n))
		extra := randMask(rng, g, rng.Intn(2), rng.Intn(5))
		root := graph.NodeID(rng.Intn(n))

		scratch := ws.Compute(g, root, graph.Nothing)
		got := ws.Recompute(g, scratch, graph.Nothing, extra)
		want := referenceTree(g, root, extra, Forward)
		requireIdentical(t, want, got, fmt.Sprintf("trial %d", trial))
	}
}

// TestComputeAllocFree verifies the headline property: a warmed-up
// workspace computes trees without allocating.
func TestComputeAllocFree(t *testing.T) {
	g := grid(12, 12)
	ws := GetWorkspace()
	defer ws.Release()
	ws.Compute(g, 0, graph.Nothing) // warm up buffers
	allocs := testing.AllocsPerRun(50, func() {
		ws.Compute(g, 5, graph.Nothing)
	})
	if allocs != 0 {
		t.Errorf("warmed-up Workspace.Compute allocates %.1f times per run, want 0", allocs)
	}

	m := graph.NewMask(g)
	m.FailLink(0)
	m.FailLink(7)
	for _, base := range []*Tree{ws.Compute(g, 0, graph.Nothing).Clone(), ws.ComputeReverse(g, 0, graph.Nothing).Clone()} {
		ws.Recompute(g, base, graph.Nothing, m) // warm up recompute scratch
		allocs = testing.AllocsPerRun(50, func() {
			ws.Recompute(g, base, graph.Nothing, m)
		})
		if allocs != 0 {
			t.Errorf("warmed-up Workspace.Recompute of a kind-%d tree allocates %.1f times per run, want 0", base.Kind, allocs)
		}
	}
}

// ComputeReverse is the scratch-tree equivalent of the package-level
// ComputeReverse.
func (ws *Workspace) ComputeReverse(g *graph.Graph, root graph.NodeID, d graph.Denied) *Tree {
	ws.ensureScratch(g.NumNodes())
	ws.runInto(&ws.scratch, g, root, d, Reverse)
	return &ws.scratch
}
