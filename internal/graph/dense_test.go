package graph

import "testing"

// funcDenied is an overlay with no dense tables of its own.
type funcDenied struct {
	node func(NodeID) bool
	link func(LinkID) bool
}

func (d funcDenied) NodeDown(v NodeID) bool  { return d.node(v) }
func (d funcDenied) LinkDown(id LinkID) bool { return d.link(id) }

func TestDenseTablesOf(t *testing.T) {
	g := line(6)

	nodes, links, ok := DenseTablesOf(Nothing)
	if !ok || nodes != nil || links != nil {
		t.Fatalf("DenseTablesOf(Nothing) = (%v, %v, %v), want (nil, nil, true)", nodes, links, ok)
	}

	m := NewMask(g)
	m.FailNode(2)
	nodes, links, ok = DenseTablesOf(m)
	if !ok {
		t.Fatal("a Mask must expose dense tables")
	}
	if len(nodes) != g.NumNodes() || len(links) != g.NumLinks() {
		t.Fatalf("table sizes (%d, %d), want (%d, %d)", len(nodes), len(links), g.NumNodes(), g.NumLinks())
	}
	if !nodes[2] {
		t.Fatal("mask tables must reflect FailNode(2)")
	}

	if _, _, ok := DenseTablesOf(funcDenied{
		node: func(NodeID) bool { return false },
		link: func(LinkID) bool { return false },
	}); ok {
		t.Fatal("an opaque Denied must not claim dense tables")
	}
}
