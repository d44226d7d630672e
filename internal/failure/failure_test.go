package failure

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/topology"
)

func TestPaperScenario(t *testing.T) {
	topo := topology.PaperExample()
	s := NewScenario(topo, topology.PaperFailureArea())

	if got := s.FailedNodes(); len(got) != 1 || got[0] != topology.PaperNode(10) {
		t.Errorf("FailedNodes = %v, want [v10]", got)
	}
	wantLinks := map[graph.LinkID]bool{
		topology.PaperLink(topo, 5, 10):  true,
		topology.PaperLink(topo, 9, 10):  true,
		topology.PaperLink(topo, 10, 11): true,
		topology.PaperLink(topo, 10, 14): true,
		topology.PaperLink(topo, 6, 11):  true,
		topology.PaperLink(topo, 4, 11):  true,
	}
	got := s.FailedLinks()
	if len(got) != len(wantLinks) {
		t.Fatalf("FailedLinks = %v, want %d links", got, len(wantLinks))
	}
	for _, id := range got {
		if !wantLinks[id] {
			t.Errorf("unexpected failed link %v", topo.G.Link(id))
		}
	}
	if !s.HasFailures() {
		t.Error("scenario must report failures")
	}
	if s.NumFailedNodes() != 1 || s.NumFailedLinks() != 6 {
		t.Errorf("counts = (%d nodes, %d links), want (1, 6)", s.NumFailedNodes(), s.NumFailedLinks())
	}
	if s.String() == "" {
		t.Error("String must be non-empty")
	}
}

func TestUnreachableSemantics(t *testing.T) {
	topo := topology.PaperExample()
	s := NewScenario(topo, topology.PaperFailureArea())

	// v5's neighbor across e5-10 is unreachable because v10 failed.
	l510 := topo.G.Link(topology.PaperLink(topo, 5, 10))
	if !s.Unreachable(l510, topology.PaperNode(5)) {
		t.Error("v10 must be unreachable from v5")
	}
	// v6's neighbor across e6-11 is unreachable because the LINK
	// failed — v11 itself is alive; v6 cannot tell the difference.
	l611 := topo.G.Link(topology.PaperLink(topo, 6, 11))
	if !s.Unreachable(l611, topology.PaperNode(6)) {
		t.Error("v11 must be unreachable from v6 across the failed link")
	}
	if s.NodeDown(topology.PaperNode(11)) {
		t.Error("v11 itself must be alive")
	}
	// v6's neighbor across e6-5 is fine.
	l65 := topo.G.Link(topology.PaperLink(topo, 6, 5))
	if s.Unreachable(l65, topology.PaperNode(6)) {
		t.Error("v5 must be reachable from v6")
	}
}

func TestEmptyScenario(t *testing.T) {
	topo := topology.PaperExample()
	s := NewScenario(topo) // no areas
	if s.HasFailures() {
		t.Error("no areas implies no failures")
	}
	if len(s.Areas()) != 0 {
		t.Error("Areas must be empty")
	}
}

func TestFarAwayArea(t *testing.T) {
	topo := topology.PaperExample()
	s := NewScenario(topo, geom.Disk{Center: geom.Point{X: 1900, Y: 1900}, Radius: 50})
	if s.HasFailures() {
		t.Errorf("area away from all nodes/links must fail nothing, got %v", s)
	}
}

func TestMultiAreaUnion(t *testing.T) {
	topo := topology.PaperExample()
	a1 := topology.PaperFailureArea()
	// A second area around v18 (850, 140).
	a2 := geom.Disk{Center: geom.Point{X: 850, Y: 140}, Radius: 30}
	s := NewScenario(topo, a1, a2)
	if !s.NodeDown(topology.PaperNode(10)) || !s.NodeDown(topology.PaperNode(18)) {
		t.Error("both areas' nodes must fail")
	}
	if len(s.Areas()) != 2 {
		t.Error("scenario must record both areas")
	}
	// Links incident to v18 must fail too.
	if !s.LinkDown(topology.PaperLink(topo, 16, 18)) || !s.LinkDown(topology.PaperLink(topo, 17, 18)) {
		t.Error("links incident to the second area's node must fail")
	}
}

func TestSingleLink(t *testing.T) {
	topo := topology.PaperExample()
	id := topology.PaperLink(topo, 6, 11)
	s := NewLinkSet(topo, id)
	if !s.LinkDown(id) {
		t.Error("the designated link must be down")
	}
	if s.NumFailedNodes() != 0 {
		t.Error("single-link scenario must fail no node")
	}
	if s.NumFailedLinks() != 1 {
		t.Errorf("single-link scenario failed %d links", s.NumFailedLinks())
	}
}

func TestRandomAreaBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		d := RandomArea(rng, MinRadius, MaxRadius)
		if d.Radius < MinRadius || d.Radius > MaxRadius {
			t.Fatalf("radius %v out of [%v,%v]", d.Radius, MinRadius, MaxRadius)
		}
		if d.Center.X < 0 || d.Center.X > topology.Width || d.Center.Y < 0 || d.Center.Y > topology.Height {
			t.Fatalf("center %v outside area", d.Center)
		}
	}
}

// Property: ground-truth consistency. A node fails iff it is inside
// some area; a link fails iff an endpoint failed or its segment
// intersects some area; Unreachable is implied by either failure.
func TestScenarioConsistencyProperty(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 17)
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		n := 1 + rng.Intn(3)
		areas := make([]geom.Disk, n)
		for i := range areas {
			areas[i] = RandomArea(rng, 50, 400)
		}
		s := NewScenario(topo, areas...)
		for v := 0; v < topo.G.NumNodes(); v++ {
			inside := false
			for _, a := range areas {
				if a.Contains(topo.Coords[v]) {
					inside = true
					break
				}
			}
			if s.NodeDown(graph.NodeID(v)) != inside {
				return false
			}
		}
		for i := 0; i < topo.G.NumLinks(); i++ {
			id := graph.LinkID(i)
			l := topo.G.Link(id)
			want := s.NodeDown(l.A) || s.NodeDown(l.B)
			if !want {
				seg := topo.LinkSegment(id)
				for _, a := range areas {
					if a.IntersectsSegment(seg) {
						want = true
						break
					}
				}
			}
			if s.LinkDown(id) != want {
				return false
			}
			if s.LinkDown(id) {
				// A failed link makes its neighbor unreachable from
				// both live endpoints.
				if !s.Unreachable(l, l.A) || !s.Unreachable(l, l.B) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRandomScenarioSmoke(t *testing.T) {
	topo := topology.GenerateAS("AS209", 2)
	rng := rand.New(rand.NewSource(3))
	sawFailure := false
	for i := 0; i < 50; i++ {
		s := RandomScenario(topo, rng)
		if s.HasFailures() {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("50 random areas on a 58-node topology should hit something")
	}
}

// Shapes returns every failure area of any kind.
func (s *Scenario) Shapes() []Area {
	return append([]Area(nil), s.areas...)
}

// Unreachable reports whether, from endpoint v of link l, the neighbor
// across l is unreachable: the link itself failed or the neighbor
// failed. This is exactly what a live router can observe about l — it
// cannot tell the two cases apart.
func (s *Scenario) Unreachable(l graph.Link, v graph.NodeID) bool {
	return s.LinkDown(l.ID) || s.NodeDown(l.Other(v))
}
