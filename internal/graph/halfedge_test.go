package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/topology"
)

// requireHalfedgeCosts asserts that every half-edge of every node v
// carries the link's costs in both directions: Cost from v to the
// neighbor and ReverseCost back. The shortest-path engine reads only
// the half-edge, so a source that builds adjacency any other way must
// keep this.
func requireHalfedgeCosts(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	for i := 0; i < g.NumNodes(); i++ {
		v := graph.NodeID(i)
		for _, he := range g.Adj(v) {
			l := g.Link(he.Link)
			if he.Cost != l.CostFrom(v) || he.ReverseCost != l.CostFrom(he.Neighbor) {
				t.Fatalf("%s: half-edge %d->%d over %v carries (%v, %v), link says (%v, %v)",
					label, v, he.Neighbor, l, he.Cost, he.ReverseCost, l.CostFrom(v), l.CostFrom(he.Neighbor))
			}
		}
	}
}

// TestHalfedgeCostsMatchLinks pins the half-edge costs at every graph
// source: AddLinkCost with asymmetric costs and parallel links, and the
// same topology read back through the text codec and the binary
// snapshot.
func TestHalfedgeCostsMatchLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 40
	g := graph.New(n)
	coords := make([]geom.Point, n)
	for v := range coords {
		coords[v] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	for i := 0; i < 3*n; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if _, err := g.AddLinkCost(a, b, 1+rng.Float64()*9, 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
	}
	requireHalfedgeCosts(t, "AddLinkCost", g)
	topo := &topology.Topology{Name: "asym", G: g, Coords: coords}

	var text bytes.Buffer
	if err := topology.Write(&text, topo); err != nil {
		t.Fatal(err)
	}
	fromText, err := topology.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	requireHalfedgeCosts(t, "text codec", fromText.G)

	var bin bytes.Buffer
	if err := topology.WriteBinary(&bin, topo, nil); err != nil {
		t.Fatal(err)
	}
	fromBin, err := topology.ReadBinary(&bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireHalfedgeCosts(t, "binary snapshot", fromBin.G)

	for _, got := range []*graph.Graph{fromText.G, fromBin.G} {
		if got.NumLinks() != g.NumLinks() {
			t.Fatalf("read back %d links, wrote %d", got.NumLinks(), g.NumLinks())
		}
		for id := 0; id < g.NumLinks(); id++ {
			if got.Link(graph.LinkID(id)) != g.Link(graph.LinkID(id)) {
				t.Fatalf("link %d read back as %v, wrote %v", id, got.Link(graph.LinkID(id)), g.Link(graph.LinkID(id)))
			}
		}
	}
}
