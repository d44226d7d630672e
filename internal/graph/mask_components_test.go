package graph

import (
	"errors"
	"strings"
	"testing"
)

// path5 builds the 5-node path 0-1-2-3-4.
func path5(t *testing.T) *Graph {
	t.Helper()
	g := New(5)
	for i := 0; i < 4; i++ {
		g.MustAddLink(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestLinkString(t *testing.T) {
	g := path5(t)
	if got := g.Link(0).String(); got != "e0(0-1)" {
		t.Errorf("Link.String() = %q", got)
	}
}

func TestCostFromWrongEndpointPanics(t *testing.T) {
	g := path5(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CostFrom on a non-endpoint must panic")
		}
		if !strings.Contains(r.(string), "not an endpoint") {
			t.Errorf("panic message = %v", r)
		}
	}()
	g.Link(0).CostFrom(4)
}

func TestMustAddLinkPanicsOnSelfLoop(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddLink self loop must panic")
		}
	}()
	g.MustAddLink(0, 0)
}

func TestAddLinkCostRejectsBadCosts(t *testing.T) {
	g := New(3)
	for _, costs := range [][2]float64{{0, 1}, {1, -2}, {1, 0}} {
		if _, err := g.AddLinkCost(0, 1, costs[0], costs[1]); !errors.Is(err, ErrBadCost) {
			t.Errorf("AddLinkCost(%v) error = %v, want ErrBadCost", costs, err)
		}
	}
	if _, err := g.AddLinkCost(0, 7, 1, 1); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out-of-range endpoint error = %v", err)
	}
}

func TestLinkBetweenMiss(t *testing.T) {
	g := path5(t)
	if _, ok := g.LinkBetween(0, 4); ok {
		t.Error("LinkBetween(0,4) must miss on a path graph")
	}
	if id, ok := g.LinkBetween(3, 2); !ok || g.Link(id).A != 2 || g.Link(id).B != 3 {
		t.Error("LinkBetween must find links regardless of argument order")
	}
}

func TestConnectedDegenerateCases(t *testing.T) {
	g := path5(t)
	if !g.Connected(2, 2, Nothing) {
		t.Error("a node is connected to itself")
	}
	m := NewMask(g)
	m.FailNode(2)
	if g.Connected(2, 2, m) {
		t.Error("a failed node is connected to nothing, itself included")
	}
	if g.Connected(0, 2, m) || g.Connected(2, 0, m) {
		t.Error("paths into a failed node must not exist")
	}
}

func TestConnectedAllEmptyLiveSet(t *testing.T) {
	g := path5(t)
	m := NewMask(g)
	for v := 0; v < 5; v++ {
		m.FailNode(NodeID(v))
	}
	if !g.ConnectedAll(m) {
		t.Error("a graph with no live nodes is vacuously connected")
	}
}

func TestComponentsExcludeFailedNodes(t *testing.T) {
	g := path5(t)
	m := NewMask(g)
	m.FailNode(2) // splits 0-1 from 3-4; node 2 in no component
	comps := g.Components(m)
	if len(comps) != 2 {
		t.Fatalf("components = %v, want 2", comps)
	}
	seen := map[NodeID]bool{}
	for _, c := range comps {
		for _, v := range c {
			if v == 2 {
				t.Error("failed node assigned to a component")
			}
			if seen[v] {
				t.Errorf("node %d in two components", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("live nodes covered = %d, want 4", len(seen))
	}
}

func TestComponentsAllDown(t *testing.T) {
	g := path5(t)
	m := NewMask(g)
	for v := 0; v < 5; v++ {
		m.FailNode(NodeID(v))
	}
	if comps := g.Components(m); len(comps) != 0 {
		t.Errorf("components of a dead graph = %v, want none", comps)
	}
}

func TestMaskCloneIsDeep(t *testing.T) {
	g := path5(t)
	m := NewMask(g)
	m.FailNode(1)
	m.FailLink(0)
	c := m.Clone()
	c.FailNode(3)
	c.FailLink(2)
	if m.NodeDown(3) || m.LinkDown(2) {
		t.Error("mutating the clone leaked into the original")
	}
	if !c.NodeDown(1) || !c.LinkDown(0) {
		t.Error("clone lost the original's failures")
	}
}

func TestUnionComposesWithNothing(t *testing.T) {
	g := path5(t)
	m := NewMask(g)
	m.FailLink(1)
	u := Union{X: Nothing, Y: m}
	if !u.LinkDown(1) || u.LinkDown(0) || u.NodeDown(0) {
		t.Error("Union{Nothing, mask} must behave exactly like the mask")
	}
}

// Clone returns a deep copy of the mask.
func (m *Mask) Clone() *Mask {
	c := &Mask{
		nodes: make([]bool, len(m.nodes)),
		links: make([]bool, len(m.links)),
	}
	copy(c.nodes, m.nodes)
	copy(c.links, m.links)
	return c
}
