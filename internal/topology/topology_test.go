package topology

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

func TestGenerateTableIICounts(t *testing.T) {
	want := map[string][2]int{
		"AS209":  {58, 108},
		"AS701":  {83, 219},
		"AS1239": {52, 84},
		"AS3320": {70, 355},
		"AS3549": {61, 486},
		"AS3561": {92, 329},
		"AS4323": {51, 161},
		"AS7018": {115, 148},
	}
	for _, p := range TableII() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			topo, err := Generate(p, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			w := want[p.Name]
			if topo.G.NumNodes() != w[0] || topo.G.NumLinks() != w[1] {
				t.Errorf("%s: got %d nodes %d links, want %d/%d",
					p.Name, topo.G.NumNodes(), topo.G.NumLinks(), w[0], w[1])
			}
			if !topo.G.ConnectedAll(graph.Nothing) {
				t.Errorf("%s: generated topology is disconnected", p.Name)
			}
			if err := topo.Validate(); err != nil {
				t.Error(err)
			}
			for _, c := range topo.Coords {
				if c.X < 0 || c.X > Width || c.Y < 0 || c.Y > Height {
					t.Fatalf("%s: coordinate %v outside the %gx%g area", p.Name, c, Width, Height)
				}
			}
			// No duplicate links.
			seen := make(map[[2]graph.NodeID]bool)
			for _, l := range topo.G.Links() {
				k := linkKey(l.A, l.B)
				if seen[k] {
					t.Fatalf("%s: duplicate link %v", p.Name, l)
				}
				seen[k] = true
			}
		})
	}
}

// TestGenerateTableIIPinned pins the text encoding of every Table II
// synthesis at seed 1 byte for byte: every experiment's numbers start
// from these maps, so a generator change must leave them identical.
func TestGenerateTableIIPinned(t *testing.T) {
	want := map[string]string{
		"AS209":  "90ac6acd0fb30cbf8dd43d406a345ba8b501a6cd059588a82795517497735f3a",
		"AS701":  "e413119d77794acb1e971d094f64f0a60516c0b0ea4c7f522ddeaa3c7dbd7e70",
		"AS1239": "67ae7a9d51d39c0bb19380d7c36437d727134430ca0eb2ab1e6b25a7e9485626",
		"AS3320": "c7fa783df1ff5717dd2a6897537bf453478a2cfc078d9d2098583c43ec29a47b",
		"AS3549": "a6e9a7e59cfcaacb586c3e28347563349984121b124ec62d4724a2836870889d",
		"AS3561": "cc05b139f1a21de20593fbaf8b4e91ffa437671de090e02f472ec0949d4c916f",
		"AS4323": "fb8541add5366a32ea1d00468e0167961caf5e97ce6666f5eb2a2df5fece4006",
		"AS7018": "6914c6e7f75ae9bfbb7327945e4ee59923cd64bb859a0676baeca238a7e728e4",
	}
	for _, name := range ASNames() {
		var buf bytes.Buffer
		if err := Write(&buf, GenerateAS(name, 1)); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[name] {
			t.Errorf("%s at seed 1: text encoding sha256 %s, want %s", name, got, want[name])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ParamsFor("AS209")
	a, err := Generate(p, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumLinks() != b.G.NumLinks() {
		t.Fatal("same seed produced different link counts")
	}
	for i := 0; i < a.G.NumLinks(); i++ {
		la, lb := a.G.Link(graph.LinkID(i)), b.G.Link(graph.LinkID(i))
		if la.A != lb.A || la.B != lb.B {
			t.Fatalf("same seed produced different link %d: %v vs %v", i, la, lb)
		}
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatalf("same seed produced different coordinate %d", i)
		}
	}
	c, err := Generate(p, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.G.NumLinks() && same; i++ {
		la, lc := a.G.Link(graph.LinkID(i)), c.G.Link(graph.LinkID(i))
		same = la.A == lc.A && la.B == lc.B
	}
	if same {
		t.Error("different seeds produced identical link tables")
	}
}

func TestGenerateAS7018HasTreeBranches(t *testing.T) {
	// The paper singles out AS7018 for its many tree branches
	// (degree-1 nodes); the analogue must reproduce that shape.
	topo := GenerateAS("AS7018", 3)
	leaves := 0
	for v := 0; v < topo.G.NumNodes(); v++ {
		if topo.G.Degree(graph.NodeID(v)) == 1 {
			leaves++
		}
	}
	if leaves < topo.G.NumNodes()/5 {
		t.Errorf("AS7018 analogue has %d leaves out of %d nodes; want a tree-branch-rich graph", leaves, topo.G.NumNodes())
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(GenParams{Nodes: 1, Links: 0}, rng); err == nil {
		t.Error("want error for <2 nodes")
	}
	if _, err := Generate(GenParams{Nodes: 5, Links: 3}, rng); err == nil {
		t.Error("want error for too few links")
	}
	if _, err := Generate(GenParams{Nodes: 5, Links: 11}, rng); err == nil {
		t.Error("want error for too many links")
	}
	if _, err := Generate(GenParams{Nodes: 5, Links: 10}, rng); err != nil {
		t.Errorf("complete graph on 5 nodes must be generable: %v", err)
	}
}

func TestGenerateASUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GenerateAS with unknown name must panic")
		}
	}()
	GenerateAS("AS0", 1)
}

func TestParamsFor(t *testing.T) {
	if _, ok := ParamsFor("AS209"); !ok {
		t.Error("AS209 preset missing")
	}
	if _, ok := ParamsFor("ASnope"); ok {
		t.Error("unknown preset must report false")
	}
	if len(ASNames()) != 8 {
		t.Errorf("want 8 AS names, got %d", len(ASNames()))
	}
}

func TestCrossIndexSimple(t *testing.T) {
	// Two crossing links and one distant link.
	g := graph.New(6)
	x1 := g.MustAddLink(0, 1)
	x2 := g.MustAddLink(2, 3)
	far := g.MustAddLink(4, 5)
	topo := &Topology{
		Name: "x",
		G:    g,
		Coords: []geom.Point{
			{X: 0, Y: 0}, {X: 10, Y: 10}, // link 0-1 diagonal
			{X: 0, Y: 10}, {X: 10, Y: 0}, // link 2-3 anti-diagonal
			{X: 100, Y: 100}, {X: 110, Y: 100},
		},
	}
	ci := BuildCrossIndex(topo)
	if !ci.Cross(x1, x2) || !ci.Cross(x2, x1) {
		t.Error("crossing links must be symmetric in the index")
	}
	if ci.Cross(x1, far) || ci.Cross(x2, far) {
		t.Error("distant link must cross nothing")
	}
	if got := ci.Crossing(x1); len(got) != 1 || got[0] != x2 {
		t.Errorf("Crossing(x1) = %v", got)
	}
	if ci.NumCrossings() != 1 {
		t.Errorf("NumCrossings = %d, want 1", ci.NumCrossings())
	}
	if !ci.CrossesAny(x1, []graph.LinkID{far, x2}) {
		t.Error("CrossesAny must find x2")
	}
	if ci.CrossesAny(x1, []graph.LinkID{far}) {
		t.Error("CrossesAny must not invent crossings")
	}
	if ci.CrossesAny(x1, nil) {
		t.Error("CrossesAny with empty set must be false")
	}
}

func TestPaperExampleStructure(t *testing.T) {
	topo := PaperExample()
	if topo.G.NumNodes() != 18 {
		t.Fatalf("paper example has %d nodes, want 18", topo.G.NumNodes())
	}
	if topo.G.NumLinks() != 30 {
		t.Fatalf("paper example has %d links, want 30", topo.G.NumLinks())
	}
	if !topo.G.ConnectedAll(graph.Nothing) {
		t.Fatal("paper example must be connected before failures")
	}
	// The narrative's routing path v7 v6 v11 v15 v17 must exist.
	for _, pair := range [][2]int{{7, 6}, {6, 11}, {11, 15}, {15, 17}} {
		if !topo.G.HasLink(PaperNode(pair[0]), PaperNode(pair[1])) {
			t.Errorf("missing routing-path link v%d-v%d", pair[0], pair[1])
		}
	}
}

func TestPaperExampleFailureGeometry(t *testing.T) {
	topo := PaperExample()
	area := PaperFailureArea()

	// Exactly v10 is inside the failure area.
	for k := 1; k <= 18; k++ {
		inside := area.Contains(topo.Coord(PaperNode(k)))
		if k == 10 && !inside {
			t.Error("v10 must be inside the failure area")
		}
		if k != 10 && inside {
			t.Errorf("v%d must be outside the failure area", k)
		}
	}

	// Exactly these links fail: v10's four incident links plus the two
	// links that cross the area, e6-11 and e4-11.
	wantFailed := map[graph.LinkID]bool{
		PaperLink(topo, 5, 10):  true,
		PaperLink(topo, 9, 10):  true,
		PaperLink(topo, 10, 11): true,
		PaperLink(topo, 10, 14): true,
		PaperLink(topo, 6, 11):  true,
		PaperLink(topo, 4, 11):  true,
	}
	for i := 0; i < topo.G.NumLinks(); i++ {
		id := graph.LinkID(i)
		l := topo.G.Link(id)
		failed := area.IntersectsSegment(topo.LinkSegment(id)) ||
			area.Contains(topo.Coords[l.A]) || area.Contains(topo.Coords[l.B])
		if failed != wantFailed[id] {
			t.Errorf("link %v: failed=%v, want %v", l, failed, wantFailed[id])
		}
	}
}

func TestPaperExampleCrossings(t *testing.T) {
	topo := PaperExample()
	ci := BuildCrossIndex(topo)

	e611 := PaperLink(topo, 6, 11)
	e512 := PaperLink(topo, 5, 12)
	e1214 := PaperLink(topo, 12, 14)
	e1115 := PaperLink(topo, 11, 15)
	e1116 := PaperLink(topo, 11, 16)

	// Fig. 4 / Constraint 1: e5-12 crosses e6-11.
	if !ci.Cross(e512, e611) {
		t.Error("e5-12 must cross e6-11")
	}
	// Fig. 6: e11-15 and e11-16 cross e14-12.
	if !ci.Cross(e1115, e1214) {
		t.Error("e11-15 must cross e14-12")
	}
	if !ci.Cross(e1116, e1214) {
		t.Error("e11-16 must cross e14-12")
	}

	// Table I's cross_link never grows beyond {e6-11, e14-12}: none of
	// the links the walk traverses may be crossed by anything except
	// e14-12 (which gains its entry at hop 5).
	walkLinks := [][2]int{{6, 5}, {5, 4}, {4, 9}, {9, 13}, {13, 14}, {12, 11}, {12, 8}, {8, 7}, {7, 6}}
	for _, w := range walkLinks {
		id := PaperLink(topo, w[0], w[1])
		if got := ci.Crossing(id); len(got) != 0 {
			t.Errorf("walk link v%d-v%d must cross nothing, crosses %v", w[0], w[1], got)
		}
	}
	if got := ci.Crossing(e1214); len(got) != 2 {
		t.Errorf("e14-12 must be crossed by exactly e11-15 and e11-16, got %v", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	topo := PaperExample()
	var buf bytes.Buffer
	if err := Write(&buf, topo); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != topo.Name {
		t.Errorf("name = %q, want %q", back.Name, topo.Name)
	}
	if back.G.NumNodes() != topo.G.NumNodes() || back.G.NumLinks() != topo.G.NumLinks() {
		t.Fatal("round trip changed graph size")
	}
	for i := range topo.Coords {
		if !back.Coords[i].Eq(topo.Coords[i]) {
			t.Errorf("coordinate %d changed: %v -> %v", i, topo.Coords[i], back.Coords[i])
		}
	}
	for i := 0; i < topo.G.NumLinks(); i++ {
		a, b := topo.G.Link(graph.LinkID(i)), back.G.Link(graph.LinkID(i))
		if a.A != b.A || a.B != b.B || a.CostAB != b.CostAB || a.CostBA != b.CostBA {
			t.Errorf("link %d changed: %+v -> %+v", i, a, b)
		}
	}
}

func TestCodecRoundTripAsymmetricCosts(t *testing.T) {
	g := graph.New(2)
	if _, err := g.AddLinkCost(0, 1, 2.5, 7.25); err != nil {
		t.Fatal(err)
	}
	topo := &Topology{Name: "asym", G: g, Coords: []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}}
	var buf bytes.Buffer
	if err := Write(&buf, topo); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l := back.G.Link(0)
	if l.CostAB != 2.5 || l.CostBA != 7.25 {
		t.Errorf("asymmetric costs lost: %+v", l)
	}
}

func TestCodecComments(t *testing.T) {
	in := `# a comment
topology demo

node 0 0 0
node 1 10 0
# another comment
link 0 1
`
	topo, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "demo" || topo.G.NumNodes() != 2 || topo.G.NumLinks() != 1 {
		t.Errorf("parsed %q with %d nodes %d links", topo.Name, topo.G.NumNodes(), topo.G.NumLinks())
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"missing header", "node 0 0 0\n"},
		{"bad directive", "topology t\nfrobnicate 1\n"},
		{"non-consecutive node", "topology t\nnode 1 0 0\n"},
		{"bad coordinate", "topology t\nnode 0 x 0\n"},
		{"NaN coordinate", "topology t\nnode 0 NaN 0\nnode 1 1 1\nlink 0 1\n"},
		{"infinite coordinate", "topology t\nnode 0 0 -Inf\n"},
		{"short node", "topology t\nnode 0 0\n"},
		{"short link", "topology t\nnode 0 0 0\nnode 1 1 1\nlink 0\n"},
		{"undeclared endpoint", "topology t\nnode 0 0 0\nlink 0 5\n"},
		{"self loop", "topology t\nnode 0 0 0\nlink 0 0\n"},
		{"bad cost", "topology t\nnode 0 0 0\nnode 1 1 1\nlink 0 1 x 1\n"},
		{"bad endpoint text", "topology t\nnode 0 0 0\nlink a 0\n"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(c.in)); err == nil {
				t.Errorf("input %q must fail to parse", c.in)
			}
		})
	}
}

func TestLinkSegment(t *testing.T) {
	topo := PaperExample()
	id := PaperLink(topo, 6, 11)
	seg := topo.LinkSegment(id)
	want := geom.Segment{A: topo.Coord(PaperNode(6)), B: topo.Coord(PaperNode(11))}
	if !seg.A.Eq(want.A) || !seg.B.Eq(want.B) {
		t.Errorf("LinkSegment = %v, want %v", seg, want)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Topology{Name: "bad"}).Validate(); err == nil {
		t.Error("nil graph must fail validation")
	}
	g := graph.New(2)
	topo := &Topology{Name: "bad2", G: g, Coords: []geom.Point{{}}}
	if err := topo.Validate(); err == nil {
		t.Error("coords/nodes mismatch must fail validation")
	}
	for _, bad := range []geom.Point{{X: math.NaN()}, {Y: math.Inf(1)}, {X: math.Inf(-1)}} {
		topo := &Topology{Name: "bad3", G: g, Coords: []geom.Point{{}, bad}}
		if err := topo.Validate(); err == nil {
			t.Errorf("coordinate %v must fail validation", bad)
		}
	}
	huge := &Topology{Name: "huge", G: g, Coords: []geom.Point{{X: -1e308}, {X: 1e308}}}
	if err := huge.Validate(); err != nil {
		t.Errorf("finite coordinates must validate: %v", err)
	}
}
