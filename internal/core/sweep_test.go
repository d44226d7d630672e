package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// star builds a topology of the given points (node i at pts[i]) and
// links (pairs of node indices; repeats are parallel links).
func star(name string, pts []geom.Point, links [][2]int) *topology.Topology {
	g := graph.New(len(pts))
	for _, l := range links {
		g.MustAddLink(graph.NodeID(l[0]), graph.NodeID(l[1]))
	}
	return &topology.Topology{Name: name, G: g, Coords: pts}
}

// points pairs up xy as coordinates.
func points(xy ...float64) []geom.Point {
	out := make([]geom.Point, 0, len(xy)/2)
	for i := 0; i+1 < len(xy); i += 2 {
		out = append(out, geom.Point{X: xy[i], Y: xy[i+1]})
	}
	return out
}

// hubLinks links node 0 to every other node.
func hubLinks(n int) [][2]int {
	var out [][2]int
	for v := 1; v < n; v++ {
		out = append(out, [2]int{0, v})
	}
	return out
}

// tieStars lays the sweep's corner cases out around a hub at the
// origin: exactly collinear neighbors (equal angles, so the distance
// tie-break decides), neighbors within geom.Eps of the sweeping line
// on either side (the full-turn branch cut), parallel links (exact
// ties on both keys), and a hub of degree 80. Rim links cross hub links,
// so cross_link has something to exclude.
func tieStars() []*topology.Topology {
	collinear := points(0, 0, 1, 0, 2, 0, 3, 0, 0, 1, 0, 2, -1, 0, -2, 0, 0, -1, 1, 1, 2, 2, -1, -1, 3, -3)
	cut := points(0, 0, 10, 0, 20, 1e-10, 20, -1e-10, 20, 1e-7, 0, 10, -10, 0, 0, -10, -20, 1e-10)
	parallel := points(0, 0, 5, 0, 0, 5, -5, -5, 10, 0)
	grid := points(0, 0)
	for x := -4.0; x <= 4; x++ {
		for y := -4.0; y <= 4; y++ {
			if x != 0 || y != 0 {
				grid = append(grid, geom.Point{X: x, Y: y})
			}
		}
	}
	gridLinks := append(hubLinks(len(grid)), [2]int{0, 1}, [2]int{0, 41}, [2]int{3, 70}, [2]int{12, 60})
	return []*topology.Topology{
		star("collinear", collinear, append(hubLinks(len(collinear)), [2]int{5, 2}, [2]int{7, 8}, [2]int{4, 12})),
		star("cut", cut, append(hubLinks(len(cut)), [2]int{5, 2}, [2]int{3, 7}, [2]int{1, 4})),
		star("parallel", parallel, [][2]int{{0, 1}, {0, 1}, {0, 2}, {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 2}, {1, 4}, {3, 4}}),
		star("hub80", grid, gridLinks),
	}
}

// diffSweep draws trials random filters on topo — a failure overlay, a
// cross_link field, a recovery initiator — and, for every node and
// incoming link under each of them, with and without the constraints
// and the incoming-link amendment, compares the table-backed
// sweepCandidates with refSweepCandidates.
func diffSweep(topo *topology.Topology, rng *rand.Rand, trials int) error {
	r := New(topo, nil)
	g := topo.G
	for trial := 0; trial < trials; trial++ {
		m := graph.NewMask(g)
		for id := 0; id < g.NumLinks(); id++ {
			if rng.Intn(5) == 0 {
				m.FailLink(graph.LinkID(id))
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if rng.Intn(10) == 0 {
				m.FailNode(graph.NodeID(v))
			}
		}
		lv := routing.NewLocalView(topo, m)
		h := &routing.Header{RecInit: graph.NodeID(rng.Intn(g.NumNodes()))}
		cs := getCollectScratch(g.NumLinks())
		for id := 0; id < g.NumLinks(); id++ {
			if rng.Intn(6) == 0 {
				cs.recordCross(r.ci, h, graph.LinkID(id))
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			for _, in := range g.Adj(graph.NodeID(v)) {
				for _, constrained := range []bool{false, true} {
					for _, allowIncoming := range []bool{false, true} {
						got, err := r.sweepCandidates(cs, lv, graph.NodeID(v), in.Link, h, constrained, allowIncoming)
						if err != nil {
							return err
						}
						want := refSweepCandidates(r, lv, graph.NodeID(v), in.Link, h, constrained, allowIncoming)
						if !slices.Equal(got, want) {
							collectScratchPool.Put(cs)
							return fmt.Errorf("%s trial %d: node %d from link %d (constrained=%v, allowIncoming=%v):\n got %v\nwant %v",
								topo.Name, trial, v, in.Link, constrained, allowIncoming, got, want)
						}
					}
				}
			}
		}
		collectScratchPool.Put(cs)
	}
	return nil
}

// TestSweepTableMatchesReferenceOnTies: the per-node sweep table,
// filtered, orders candidates exactly as a per-hop sort of the
// admissible ones does, on the tie-heavy stars.
func TestSweepTableMatchesReferenceOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, topo := range tieStars() {
		if err := diffSweep(topo, rng, 12); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepTableRejectsWideNodes: a node whose links cannot all be
// indexed by a uint16 gets an error, not a wrapped table.
func TestSweepTableRejectsWideNodes(t *testing.T) {
	g := graph.New(2)
	for i := 0; i <= 1<<16; i++ {
		g.MustAddLink(0, 1)
	}
	r := &RTR{topo: &topology.Topology{Name: "wide", G: g, Coords: points(0, 0, 1, 0)}}
	if _, err := r.sweepRows(0); err == nil {
		t.Fatal("degree 65,537 built a sweep table")
	}
}

// FuzzSweepOrder: small graphs on a 7x7 grid of quantised coordinates,
// some nudged by a fraction of geom.Eps, so collinear neighbors,
// parallel links and near-branch-cut directions are the rule; the
// table-backed sweep must match the reference under random filters.
func FuzzSweepOrder(f *testing.F) {
	f.Add([]byte{3, 3, 4, 3, 5, 3, 3, 6, 0x84, 3, 2, 2}, []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 4, 5}, int64(1))
	f.Add([]byte{0, 0, 6, 6, 3, 3, 0x83, 0x83, 6, 0}, []byte{2, 0, 2, 1, 2, 3, 2, 4, 0, 1, 3, 4, 2, 3}, int64(7))
	f.Fuzz(func(t *testing.T, coords, links []byte, seed int64) {
		n := min(len(coords)/2, 12)
		if n < 2 {
			return
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			x, y := coords[2*i], coords[2*i+1]
			pts[i] = geom.Point{X: float64(x&0x7f%7) - 3, Y: float64(y&0x7f%7) - 3}
			if y&0x80 != 0 {
				pts[i].Y += geom.Eps / 4
			}
		}
		var ls [][2]int
		for i := 0; i+1 < len(links) && len(ls) < 40; i += 2 {
			if a, b := int(links[i])%n, int(links[i+1])%n; a != b {
				ls = append(ls, [2]int{a, b})
			}
		}
		if err := diffSweep(star("fuzz", pts, ls), rand.New(rand.NewSource(seed)), 3); err != nil {
			t.Fatal(err)
		}
	})
}
