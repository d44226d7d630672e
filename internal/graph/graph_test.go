package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// line returns the path graph 0-1-2-...-(n-1).
func line(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddLink(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumLinks() != 0 {
		t.Errorf("NumLinks = %d, want 0", g.NumLinks())
	}
	if g.Degree(3) != 0 {
		t.Error("fresh node must have degree 0")
	}
}

func TestNewPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) must panic")
		}
	}()
	New(-1)
}

func TestWithNodes(t *testing.T) {
	g, err := WithNodes(7)
	if err != nil {
		t.Fatalf("WithNodes(7): %v", err)
	}
	if g.NumNodes() != 7 {
		t.Errorf("NumNodes = %d, want 7", g.NumNodes())
	}
	if _, err := WithNodes(-1); !errors.Is(err, ErrTooManyNodes) {
		t.Errorf("WithNodes(-1) error = %v, want ErrTooManyNodes", err)
	}
	if _, err := WithNodes(MaxNodes + 1); !errors.Is(err, ErrTooManyNodes) {
		t.Errorf("WithNodes(MaxNodes+1) error = %v, want ErrTooManyNodes", err)
	}
	if _, err := WithNodes(MaxNodes + 1); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("capacity error must name the limit, got %v", err)
	}
}

func TestWideIDs(t *testing.T) {
	// IDs past the old 16-bit ceiling must round-trip through the
	// adjacency structures unchanged.
	const n = 70000
	g := New(n)
	id, err := g.AddLink(65535, 69999)
	if err != nil {
		t.Fatalf("AddLink wide: %v", err)
	}
	l := g.Link(id)
	if l.A != 65535 || l.B != 69999 {
		t.Errorf("wide link endpoints = (%d,%d)", l.A, l.B)
	}
	if got, ok := g.LinkBetween(69999, 65535); !ok || got != id {
		t.Errorf("LinkBetween wide = (%d,%v)", got, ok)
	}
}

func TestAddLink(t *testing.T) {
	g := New(3)
	id, err := g.AddLink(0, 1)
	if err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if id != 0 {
		t.Errorf("first link ID = %d, want 0", id)
	}
	l := g.Link(id)
	if l.A != 0 || l.B != 1 || l.CostAB != 1 || l.CostBA != 1 {
		t.Errorf("unexpected link %+v", l)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Error("degrees wrong after AddLink")
	}
	if !g.HasLink(0, 1) || !g.HasLink(1, 0) {
		t.Error("HasLink must be symmetric")
	}
	if g.HasLink(0, 2) {
		t.Error("HasLink must be false for absent link")
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := New(2)
	if _, err := g.AddLink(0, 5); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out-of-range error = %v", err)
	}
	if _, err := g.AddLink(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop error = %v", err)
	}
	if _, err := g.AddLinkCost(0, 1, 0, 1); !errors.Is(err, ErrBadCost) {
		t.Errorf("zero-cost error = %v", err)
	}
	if _, err := g.AddLinkCost(0, 1, 1, -3); !errors.Is(err, ErrBadCost) {
		t.Errorf("negative-cost error = %v", err)
	}
}

func TestAsymmetricCosts(t *testing.T) {
	g := New(2)
	id, err := g.AddLinkCost(0, 1, 2.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	l := g.Link(id)
	if l.CostFrom(0) != 2.5 {
		t.Errorf("CostFrom(A) = %v, want 2.5", l.CostFrom(0))
	}
	if l.CostFrom(1) != 7 {
		t.Errorf("CostFrom(B) = %v, want 7", l.CostFrom(1))
	}
	// Adjacency halfedges carry directional costs.
	if g.Adj(0)[0].Cost != 2.5 || g.Adj(1)[0].Cost != 7 {
		t.Error("halfedge costs must be directional")
	}
}

func TestLinkOther(t *testing.T) {
	l := Link{ID: 3, A: 4, B: 9}
	if l.Other(4) != 9 || l.Other(9) != 4 {
		t.Error("Other must return the opposite endpoint")
	}
	if !l.HasEndpoint(4) || !l.HasEndpoint(9) || l.HasEndpoint(5) {
		t.Error("HasEndpoint wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other must panic on non-endpoint")
		}
	}()
	l.Other(7)
}

func TestParallelLinks(t *testing.T) {
	g := New(2)
	a := g.MustAddLink(0, 1)
	b := g.MustAddLink(0, 1)
	if a == b {
		t.Error("parallel links must get distinct IDs")
	}
	if g.Degree(0) != 2 {
		t.Errorf("degree with parallel links = %d, want 2", g.Degree(0))
	}
	id, ok := g.LinkBetween(0, 1)
	if !ok || id != a {
		t.Errorf("LinkBetween = (%d,%v), want first link %d", id, ok, a)
	}
}

func TestNeighborsAndLinksCopy(t *testing.T) {
	g := line(4)
	nbr := g.Neighbors(1)
	if len(nbr) != 2 || nbr[0] != 0 || nbr[1] != 2 {
		t.Errorf("Neighbors(1) = %v", nbr)
	}
	ls := g.Links()
	ls[0].A = 99 // mutating the copy must not affect the graph
	if g.Link(0).A == 99 {
		t.Error("Links must return a copy")
	}
}

func TestClone(t *testing.T) {
	g := line(4)
	c := g.Clone()
	c.MustAddLink(0, 3)
	if g.NumLinks() == c.NumLinks() {
		t.Error("clone must be independent of the original")
	}
	if !c.HasLink(0, 3) || g.HasLink(0, 3) {
		t.Error("link added to clone leaked into original")
	}
}

func TestMask(t *testing.T) {
	g := line(4)
	m := NewMask(g)
	if m.NodeDown(0) || m.LinkDown(0) {
		t.Error("fresh mask must be all-up")
	}
	m.FailNode(2)
	m.FailLink(0)
	if !m.NodeDown(2) || !m.LinkDown(0) {
		t.Error("mask must record failures")
	}
	if got := m.DownNodes(); len(got) != 1 || got[0] != 2 {
		t.Errorf("DownNodes = %v", got)
	}
	if got := m.DownLinks(); len(got) != 1 || got[0] != 0 {
		t.Errorf("DownLinks = %v", got)
	}
	c := m.Clone()
	c.FailNode(3)
	if m.NodeDown(3) {
		t.Error("mask clone must be independent")
	}
}

func TestUnionAndUsable(t *testing.T) {
	g := line(3)
	m1 := NewMask(g)
	m2 := NewMask(g)
	m1.FailNode(0)
	m2.FailLink(1)
	u := Union{m1, m2}
	if !u.NodeDown(0) || !u.LinkDown(1) {
		t.Error("union must combine failures")
	}
	if u.NodeDown(1) || u.LinkDown(0) {
		t.Error("union must not invent failures")
	}
	if Usable(g.Link(0), u) {
		t.Error("link 0 has a failed endpoint, must be unusable")
	}
	if Usable(g.Link(1), u) {
		t.Error("link 1 is failed, must be unusable")
	}
	if !Usable(g.Link(1), Nothing) {
		t.Error("everything is usable under Nothing")
	}
}

func TestReachableAndConnected(t *testing.T) {
	g := line(5)
	if !g.Connected(0, 4, Nothing) {
		t.Error("path graph must be connected end to end")
	}
	m := NewMask(g)
	m.FailLink(2) // cut 2-3
	if g.Connected(0, 4, m) {
		t.Error("cut must disconnect 0 from 4")
	}
	if !g.Connected(0, 2, m) {
		t.Error("0 and 2 remain connected")
	}
	seen := g.Reachable(0, m)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("Reachable[%d] = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestConnectedFailedEndpoints(t *testing.T) {
	g := line(3)
	m := NewMask(g)
	m.FailNode(0)
	if g.Connected(0, 2, m) || g.Connected(2, 0, m) {
		t.Error("a failed endpoint is never connected")
	}
	if r := g.Reachable(0, m); r[0] || r[1] {
		t.Error("Reachable from a failed node must be empty")
	}
	if !g.Connected(1, 1, m) {
		t.Error("a live node is connected to itself")
	}
}

func TestComponents(t *testing.T) {
	g := line(6)
	m := NewMask(g)
	m.FailNode(2) // splits into {0,1} and {3,4,5}
	comps := g.Components(m)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if len(comps[0]) != 2 || comps[0][0] != 0 || comps[0][1] != 1 {
		t.Errorf("first component = %v", comps[0])
	}
	if len(comps[1]) != 3 || comps[1][0] != 3 {
		t.Errorf("second component = %v", comps[1])
	}
}

func TestConnectedAll(t *testing.T) {
	g := line(4)
	if !g.ConnectedAll(Nothing) {
		t.Error("path graph is connected")
	}
	m := NewMask(g)
	m.FailLink(1)
	if g.ConnectedAll(m) {
		t.Error("cut path graph is not connected")
	}
	// Failing one side entirely leaves a single live component.
	m.FailNode(0)
	m.FailNode(1)
	if !g.ConnectedAll(m) {
		t.Error("live subgraph {2,3} is connected")
	}
	// All nodes down: vacuously connected.
	m.FailNode(2)
	m.FailNode(3)
	if !g.ConnectedAll(m) {
		t.Error("empty live subgraph is vacuously connected")
	}
}

// Property: components partition the live nodes, and Connected agrees
// with component co-membership.
func TestComponentsPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < n*2; i++ {
			a := NodeID(rng.Intn(n))
			b := NodeID(rng.Intn(n))
			if a != b {
				g.MustAddLink(a, b)
			}
		}
		m := NewMask(g)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.2 {
				m.FailNode(NodeID(v))
			}
		}
		for l := 0; l < g.NumLinks(); l++ {
			if rng.Float64() < 0.2 {
				m.FailLink(LinkID(l))
			}
		}
		comps := g.Components(m)
		compOf := make(map[NodeID]int)
		for i, c := range comps {
			for _, v := range c {
				if _, dup := compOf[v]; dup {
					return false // node in two components
				}
				compOf[v] = i
			}
		}
		for v := 0; v < n; v++ {
			_, inComp := compOf[NodeID(v)]
			if inComp == m.NodeDown(NodeID(v)) {
				return false // live nodes iff in some component
			}
		}
		// Spot-check Connected against co-membership.
		for i := 0; i < 10; i++ {
			a := NodeID(rng.Intn(n))
			b := NodeID(rng.Intn(n))
			ca, oka := compOf[a]
			cb, okb := compOf[b]
			want := oka && okb && ca == cb
			if g.Connected(a, b, m) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Neighbors returns the neighbors of v in adjacency order. Parallel
// links yield repeated neighbors.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[v]))
	for _, h := range g.adj[v] {
		out = append(out, h.Neighbor)
	}
	return out
}

// HasLink reports whether a link between a and b exists.
func (g *Graph) HasLink(a, b NodeID) bool {
	_, ok := g.LinkBetween(a, b)
	return ok
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.links = make([]Link, len(g.links))
	copy(c.links, g.links)
	for v := range g.adj {
		c.adj[v] = make([]Halfedge, len(g.adj[v]))
		copy(c.adj[v], g.adj[v])
	}
	return c
}
