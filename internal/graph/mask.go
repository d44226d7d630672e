package graph

// Denied is a failure overlay: it reports which nodes and links are
// removed from the graph. Implementations include failure.Scenario
// (ground truth), routing views, and the per-initiator pruned views
// RTR builds in its second phase.
type Denied interface {
	NodeDown(NodeID) bool
	LinkDown(LinkID) bool
}

// Nothing is a Denied with no failures.
var Nothing Denied = nothing{}

type nothing struct{}

func (nothing) NodeDown(NodeID) bool { return false }
func (nothing) LinkDown(LinkID) bool { return false }

// Mask is a mutable Denied backed by boolean tables. The zero value is
// not usable; create one with NewMask.
type Mask struct {
	nodes []bool
	links []bool
}

var _ DenseTabler = (*Mask)(nil)

// NewMask returns an all-up Mask sized for g.
func NewMask(g *Graph) *Mask {
	return &Mask{
		nodes: make([]bool, g.NumNodes()),
		links: make([]bool, g.NumLinks()),
	}
}

// FailNode marks node v as failed.
func (m *Mask) FailNode(v NodeID) { m.nodes[v] = true }

// FailLink marks link id as failed.
func (m *Mask) FailLink(id LinkID) { m.links[id] = true }

// RestoreLink marks link id as up again, undoing FailLink.
func (m *Mask) RestoreLink(id LinkID) { m.links[id] = false }

// NodeDown implements Denied.
func (m *Mask) NodeDown(v NodeID) bool { return m.nodes[v] }

// LinkDown implements Denied.
func (m *Mask) LinkDown(id LinkID) bool { return m.links[id] }

// DenseTables implements DenseTabler: the mask's own tables, shared —
// callers must not mutate them and must not hold them across
// FailNode/FailLink calls.
func (m *Mask) DenseTables() (nodes, links []bool) { return m.nodes, m.links }

// DownNodes returns the failed nodes in ascending order.
func (m *Mask) DownNodes() []NodeID {
	var out []NodeID
	for v, down := range m.nodes {
		if down {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// DownLinks returns the failed links in ascending order.
func (m *Mask) DownLinks() []LinkID {
	var out []LinkID
	for id, down := range m.links {
		if down {
			out = append(out, LinkID(id))
		}
	}
	return out
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

// Union is the Denied that removes everything removed by either of its
// operands. It is used to compose a base failure scenario with
// additionally learned failures.
type Union struct {
	X, Y Denied
}

var _ Denied = Union{}

// NodeDown implements Denied.
func (u Union) NodeDown(v NodeID) bool { return u.X.NodeDown(v) || u.Y.NodeDown(v) }

// LinkDown implements Denied.
func (u Union) LinkDown(id LinkID) bool { return u.X.LinkDown(id) || u.Y.LinkDown(id) }

// Usable reports whether the link l can be traversed under d: the link
// itself and both endpoints must be up.
func Usable(l Link, d Denied) bool {
	return !d.LinkDown(l.ID) && !d.NodeDown(l.A) && !d.NodeDown(l.B)
}
