package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// naiveCrossIndex is the original exhaustive O(E^2) build, kept as the
// differential oracle for the grid-accelerated BuildCrossIndex.
func naiveCrossIndex(t *Topology) *CrossIndex {
	segs := linkSegments(t)
	e := len(segs)
	rows := make([][]graph.LinkID, e)
	ci := &CrossIndex{off: make([]int, 1, e+1)}
	for i := 0; i < e; i++ {
		for j := i + 1; j < e; j++ {
			if segs[i].Crosses(segs[j]) {
				rows[i] = append(rows[i], graph.LinkID(j))
				rows[j] = append(rows[j], graph.LinkID(i))
			}
		}
	}
	for _, row := range rows {
		ci.cross = append(ci.cross, row...)
		ci.off = append(ci.off, len(ci.cross))
	}
	return ci
}

func sameCrossIndex(t *testing.T, want, got *CrossIndex) {
	t.Helper()
	if len(want.off) != len(got.off) {
		t.Fatalf("crossing table size %d != %d", len(got.off)-1, len(want.off)-1)
	}
	for i := 0; i < len(want.off)-1; i++ {
		w, g := want.Crossing(graph.LinkID(i)), got.Crossing(graph.LinkID(i))
		if len(w) != len(g) {
			t.Fatalf("link %d: %d crossings != %d", i, len(g), len(w))
		}
		if cap(g) != len(g) {
			t.Fatalf("link %d: Crossing has capacity %d past its %d entries; an append would overwrite the next list", i, cap(g), len(g))
		}
		for k := range w {
			if w[k] != g[k] {
				t.Fatalf("link %d: crossing[%d] = %d, want %d", i, k, g[k], w[k])
			}
		}
	}
	if want.NumCrossings() != got.NumCrossings() {
		t.Fatalf("NumCrossings = %d, want %d", got.NumCrossings(), want.NumCrossings())
	}
}

// segmentTopology embeds one link per segment, each between its own
// two nodes.
func segmentTopology(name string, segs []geom.Segment) *Topology {
	g := graph.New(2 * len(segs))
	coords := make([]geom.Point, 0, 2*len(segs))
	for i, s := range segs {
		coords = append(coords, s.A, s.B)
		g.MustAddLink(graph.NodeID(2*i), graph.NodeID(2*i+1))
	}
	return &Topology{Name: name, G: g, Coords: coords}
}

// degenerateTopologies are geometries the grid sizing must survive:
// zero mean extent on an axis, zero-length links, one cell-spanning
// link, and spans that overflow to +Inf.
func degenerateTopologies() []*Topology {
	rng := rand.New(rand.NewSource(3))
	coord := func() float64 { return float64(rng.Intn(41)) * 50 } // shared values force touches
	var vertical, points, long, huge []geom.Segment
	for i := 0; i < 300; i++ {
		x := coord()
		vertical = append(vertical, geom.Segment{A: geom.Point{X: x, Y: coord()}, B: geom.Point{X: x, Y: coord()}})
	}
	for i := 0; i < 150; i++ {
		p := geom.Point{X: coord(), Y: coord()}
		q := geom.Point{X: p.X + 100, Y: p.Y + 100} // passes through grid points
		points = append(points, geom.Segment{A: p, B: p}, geom.Segment{A: p, B: q})
	}
	long = append(long, geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 2000, Y: 2000}})
	for i := 0; i < 400; i++ {
		p := geom.Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}
		long = append(long, geom.Segment{A: p, B: geom.Point{X: p.X + rng.Float64()*120 - 60, Y: p.Y + rng.Float64()*120 - 60}})
	}
	huge = append(huge,
		geom.Segment{A: geom.Point{X: -1e308, Y: -1e308}, B: geom.Point{X: 1e308, Y: 1e308}},
		geom.Segment{A: geom.Point{X: -1e308, Y: 1e308}, B: geom.Point{X: 1e308, Y: -1e308}},
		geom.Segment{A: geom.Point{X: 0, Y: -1e308}, B: geom.Point{X: 0, Y: 1e308}},
		geom.Segment{A: geom.Point{X: 1e308, Y: 0}, B: geom.Point{X: 1e308, Y: 5}},
	)
	for i := 0; i < 50; i++ {
		p := geom.Point{X: rng.Float64()*200 - 100, Y: rng.Float64()*200 - 100}
		huge = append(huge, geom.Segment{A: p, B: geom.Point{X: -p.Y, Y: p.X}})
	}
	return []*Topology{
		{Name: "no-links", G: graph.New(3), Coords: make([]geom.Point, 3)},
		segmentTopology("vertical", vertical),
		segmentTopology("zero-length", points),
		segmentTopology("one-spanning", long[:1]),
		segmentTopology("long+short", long),
		segmentTopology("pm1e308", huge),
	}
}

// TestBuildCrossIndexMatchesNaive checks the grid-accelerated build
// against the exhaustive scan on every Table II topology, a tiered
// synthesis and the degenerate geometries, list for list in identical
// order, plus Cross() agreement on sampled pairs.
func TestBuildCrossIndexMatchesNaive(t *testing.T) {
	topos := []*Topology{PaperExample()}
	for _, name := range ASNames() {
		topos = append(topos, GenerateAS(name, 7))
	}
	tiered, err := Generate(GenParams{Name: "t2k", Nodes: 2000, Links: 5000, Tiers: true},
		rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, tiered)
	topos = append(topos, degenerateTopologies()...)

	rng := rand.New(rand.NewSource(1))
	for _, topo := range topos {
		want := naiveCrossIndex(topo)
		got := BuildCrossIndex(topo)
		sameCrossIndex(t, want, got)
		e := topo.G.NumLinks()
		if e == 0 {
			continue
		}
		for trial := 0; trial < 2000; trial++ {
			a := graph.LinkID(rng.Intn(e))
			b := graph.LinkID(rng.Intn(e))
			if want.Cross(a, b) != got.Cross(a, b) {
				t.Fatalf("%s: Cross(%d,%d) = %v, want %v", topo.Name, a, b, got.Cross(a, b), want.Cross(a, b))
			}
		}
	}
}

// TestSegGridSizing pins the axis rule: cell counts stay in [1, 256]
// for every finite input, including spans that overflow to +Inf.
func TestSegGridSizing(t *testing.T) {
	for _, c := range []struct {
		lo, hi, mean float64
		want         int32
	}{
		{0, 2000, 400, 5},
		{0, 2000, 401, 4},
		{0, 2000, 1, maxGridCells},
		{0, 2000, 0, maxGridCells}, // all links vertical on this axis
		{0, 0, 0, 1},
		{5, 5, 0, 1},
		{0, 100, 300, 1},
		{-1e308, 1e308, 1, 1}, // span overflows
		{0, 1e308, 1e308, 1},
	} {
		a := newGridAxis(c.lo, c.hi, c.mean)
		if a.n != c.want {
			t.Errorf("newGridAxis(%g, %g, %g).n = %d, want %d", c.lo, c.hi, c.mean, a.n, c.want)
		}
		for _, v := range []float64{c.lo, (c.lo + c.hi) / 2, c.hi} {
			if k := a.cell(v); k < 0 || k >= a.n {
				t.Errorf("newGridAxis(%g, %g, %g).cell(%g) = %d outside [0, %d)", c.lo, c.hi, c.mean, v, k, a.n)
			}
		}
	}
}

// TestSegGridWorkBelowExhaustive guards the sizing rule: the pairs the
// grid examines, one per two segments sharing a cell, never outnumber
// the E(E-1)/2 pairs an exhaustive scan tests. A fixed fine grid broke
// this by two orders of magnitude on the dense long-link Table II maps.
func TestSegGridWorkBelowExhaustive(t *testing.T) {
	var topos []*Topology
	for _, seed := range []int64{1, 7} {
		for _, name := range ASNames() {
			topo := GenerateAS(name, seed)
			topo.Name = fmt.Sprintf("%s/seed%d", name, seed)
			topos = append(topos, topo)
		}
	}
	tiered, err := Generate(GenParams{Name: "t2k", Nodes: 2000, Links: 5000, Tiers: true},
		rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, tiered)
	for _, topo := range topos {
		g := newSegGrid(linkSegments(topo))
		work := 0
		for k := 0; k < g.numCells(); k++ {
			c := g.start[k+1] - g.start[k]
			work += c * (c - 1) / 2
		}
		e := topo.G.NumLinks()
		if all := e * (e - 1) / 2; work > all {
			t.Errorf("%s: %dx%d grid examines %d pairs, more than all %d", topo.Name, g.nx, g.ny, work, all)
		}
	}
}

// TestCrossMatchesNaive pins the pairwise Cross query, a binary search
// over the built lists, against a linear scan of the exhaustive build's
// lists: on every ordered pair of the densest Table II map and on
// sampled pairs of a 2k-node tiered synthesis. The invariant oracle
// asks Constraints 1-2 through Cross alone.
func TestCrossMatchesNaive(t *testing.T) {
	check := func(want, got *CrossIndex, a, b graph.LinkID) {
		t.Helper()
		if w := slices.Contains(want.Crossing(a), b); got.Cross(a, b) != w {
			t.Fatalf("Cross(%d,%d) = %v, want %v", a, b, got.Cross(a, b), w)
		}
	}
	topo := GenerateAS("AS3549", 7) // densest Table II map: 486 links
	want, got := naiveCrossIndex(topo), BuildCrossIndex(topo)
	e := topo.G.NumLinks()
	for a := 0; a < e; a++ {
		for b := 0; b < e; b++ {
			check(want, got, graph.LinkID(a), graph.LinkID(b))
		}
	}

	tiered, err := Generate(GenParams{Name: "t2k", Nodes: 2000, Links: 5000, Tiers: true},
		rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	want, got = naiveCrossIndex(tiered), BuildCrossIndex(tiered)
	e = tiered.G.NumLinks()
	rng := rand.New(rand.NewSource(2))
	for a := 0; a < e; a++ {
		// Every crossing pair, plus random pairs (mostly non-crossing).
		for _, b := range want.Crossing(graph.LinkID(a)) {
			check(want, got, graph.LinkID(a), b)
		}
		for k := 0; k < 4; k++ {
			check(want, got, graph.LinkID(a), graph.LinkID(rng.Intn(e)))
		}
	}
}
