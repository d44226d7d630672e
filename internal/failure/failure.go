// Package failure implements large-scale failure models: continuous
// failure areas placed in the plane (the paper's disks, plus capsule
// "conduit cut" strips), correlated link groups, and scheduled
// cascading/transient failures. Routers inside an area fail; links
// whose segments pass through an area fail even if both endpoints
// survive. A Scenario is the ground truth of a failure event — only
// the simulation harness may consult it; protocol code sees failures
// exclusively through per-node views (see package routing).
//
// Random scenarios are drawn through the pluggable Generator
// interface (see generator.go): ParseSpec turns a spec string such as
// "disk", "disks:k=3,disjoint", or "cut:w=200" into a model, and every
// registered model is property-tested against the invariant oracle.
package failure

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Default failure-radius bounds used by the paper's evaluation: the
// radius is drawn uniformly from [MinRadius, MaxRadius].
const (
	MinRadius = 100.0
	MaxRadius = 300.0
)

// Area is a continuous region of the plane that a failure scenario
// destroys: nodes inside it fail, links crossing it fail. geom.Disk
// (the paper's model) and geom.Capsule (line/conduit cuts) implement
// it.
type Area interface {
	Contains(geom.Point) bool
	IntersectsSegment(geom.Segment) bool
	String() string
}

var (
	_ Area = geom.Disk{}
	_ Area = geom.Capsule{}
)

// Scenario is the ground truth of a failure event on a topology.
// It implements graph.Denied.
type Scenario struct {
	Topo  *topology.Topology
	areas []Area
	// links are the explicitly failed links, ascending and
	// duplicate-free. The mask cannot give them back: it also holds
	// every link an area took down.
	links []graph.LinkID
	mask  *graph.Mask
	// gen is the generator spec that produced the scenario ("" for
	// hand-built scenarios); it rides into invariant repro strings.
	gen string
	// steps is the optional failure schedule (cascading/transient
	// models): steps[i] is the ground truth after step i. Static
	// scenarios leave it nil.
	steps []*Scenario
}

var _ graph.DenseTabler = (*Scenario)(nil)

// NewScenario computes the ground truth for the given disk-shaped
// failure areas on topo: every node inside any area fails, and every
// link that has a failed endpoint or whose segment intersects any area
// fails. It is the paper's model; the generators compose other Area
// shapes (capsules) and explicit link sets.
func NewScenario(topo *topology.Topology, areas ...geom.Disk) *Scenario {
	as := make([]Area, len(areas))
	for i, a := range areas {
		as[i] = a
	}
	return compose(topo, as, nil)
}

// NewLinkSet returns a scenario in which exactly the given links fail
// (no geometric area, no node failures) — the shape of correlated
// SRLG failures and single-link flaps.
func NewLinkSet(topo *topology.Topology, ids ...graph.LinkID) *Scenario {
	return compose(topo, nil, ids)
}

// compose builds the ground-truth mask: nodes inside any area fail;
// a link fails iff an endpoint failed, its segment intersects any
// area, or it is listed in extra.
func compose(topo *topology.Topology, areas []Area, extra []graph.LinkID) *Scenario {
	s := &Scenario{
		Topo:  topo,
		areas: areas,
		links: normLinks(slices.Clone(extra)),
		mask:  graph.NewMask(topo.G),
	}
	for v := 0; v < topo.G.NumNodes(); v++ {
		for _, a := range areas {
			if a.Contains(topo.Coords[v]) {
				s.mask.FailNode(graph.NodeID(v))
				break
			}
		}
	}
	for _, id := range s.links {
		s.mask.FailLink(id)
	}
	for i := 0; i < topo.G.NumLinks(); i++ {
		id := graph.LinkID(i)
		l := topo.G.Link(id)
		if s.mask.NodeDown(l.A) || s.mask.NodeDown(l.B) {
			s.mask.FailLink(id)
			continue
		}
		seg := topo.LinkSegment(id)
		for _, a := range areas {
			if a.IntersectsSegment(seg) {
				s.mask.FailLink(id)
				break
			}
		}
	}
	return s
}

// NodeDown implements graph.Denied.
func (s *Scenario) NodeDown(v graph.NodeID) bool { return s.mask.NodeDown(v) }

// LinkDown implements graph.Denied.
func (s *Scenario) LinkDown(id graph.LinkID) bool { return s.mask.LinkDown(id) }

// DenseTables implements graph.DenseTabler by exposing the ground-truth
// mask's tables (shared, read-only for callers); the shortest-path
// engine uses them to skip per-edge interface dispatch when computing
// post-failure trees.
func (s *Scenario) DenseTables() (nodes, links []bool) { return s.mask.DenseTables() }

// Areas returns the disk-shaped failure areas (the paper's model).
// Scenarios built from other Area kinds expose them through Shapes.
func (s *Scenario) Areas() []geom.Disk {
	var out []geom.Disk
	for _, a := range s.areas {
		if d, ok := a.(geom.Disk); ok {
			out = append(out, d)
		}
	}
	return out
}

// Shapes returns every failure area of any kind.
func (s *Scenario) Shapes() []Area {
	return append([]Area(nil), s.areas...)
}

// GenSpec returns the generator spec string that produced the
// scenario, or "" for hand-built scenarios.
func (s *Scenario) GenSpec() string { return s.gen }

// Steps returns the number of steps in the scenario's failure
// schedule; static scenarios have exactly one step (themselves).
func (s *Scenario) Steps() int {
	if len(s.steps) == 0 {
		return 1
	}
	return len(s.steps)
}

// At returns the ground truth after schedule step i (clamped to the
// schedule bounds). A static scenario returns itself for every i.
// Cascading models produce monotone schedules (each step's failures
// contain the previous step's — the delete-only shape incremental
// recomputation requires); transient models repair, so later steps may
// shed failures and are only delete-only relative to the clean state.
func (s *Scenario) At(i int) *Scenario {
	if len(s.steps) == 0 {
		return s
	}
	if i < 0 {
		i = 0
	}
	if i >= len(s.steps) {
		i = len(s.steps) - 1
	}
	return s.steps[i]
}

// FailedNodes returns the failed nodes in ascending order.
func (s *Scenario) FailedNodes() []graph.NodeID { return s.mask.DownNodes() }

// FailedLinks returns the failed links in ascending order.
func (s *Scenario) FailedLinks() []graph.LinkID { return s.mask.DownLinks() }

// NumFailedNodes returns the number of failed nodes.
func (s *Scenario) NumFailedNodes() int { return len(s.mask.DownNodes()) }

// NumFailedLinks returns the number of failed links.
func (s *Scenario) NumFailedLinks() int { return len(s.mask.DownLinks()) }

// HasFailures reports whether anything failed at all.
func (s *Scenario) HasFailures() bool {
	return len(s.mask.DownLinks()) > 0 || len(s.mask.DownNodes()) > 0
}

// Unreachable reports whether, from endpoint v of link l, the neighbor
// across l is unreachable: the link itself failed or the neighbor
// failed. This is exactly what a live router can observe about l — it
// cannot tell the two cases apart.
func (s *Scenario) Unreachable(l graph.Link, v graph.NodeID) bool {
	return s.LinkDown(l.ID) || s.NodeDown(l.Other(v))
}

// String implements fmt.Stringer.
func (s *Scenario) String() string {
	extra := ""
	if n := s.Steps(); n > 1 {
		extra = fmt.Sprintf(", %d steps", n)
	}
	return fmt.Sprintf("scenario(%s: %d areas, %d nodes down, %d links down%s)",
		s.Topo.Name, len(s.areas), s.NumFailedNodes(), s.NumFailedLinks(), extra)
}

// SingleLink returns a scenario in which exactly the given link fails
// (no geometric area). It is used by the Theorem 3 experiments.
func SingleLink(topo *topology.Topology, id graph.LinkID) *Scenario {
	return NewLinkSet(topo, id)
}

// RandomArea draws a failure disk with center uniform in the
// simulation area and radius uniform in [minR, maxR], matching the
// paper's setup.
func RandomArea(rng *rand.Rand, minR, maxR float64) geom.Disk {
	return geom.Disk{
		Center: geom.Point{X: rng.Float64() * topology.Width, Y: rng.Float64() * topology.Height},
		Radius: minR + rng.Float64()*(maxR-minR),
	}
}

// RandomScenario draws one random failure area with the paper's
// default radius bounds and returns its scenario on topo. It is the
// default generator's model ("disk"): the two draw bit-identical
// scenarios from the same RNG stream.
func RandomScenario(topo *topology.Topology, rng *rand.Rand) *Scenario {
	return NewScenario(topo, RandomArea(rng, MinRadius, MaxRadius))
}

// Desc returns the canonical instance descriptor of the scenario's
// failure cause: the exact areas ("disk(x,y,r)", "cut(ax,ay,bx,by,r)")
// in order, then the explicitly failed links ("links(3,17)"),
// ';'-joined, or "none". ParseInstance rebuilds an identical scenario
// from it, which is what makes invariant repro strings actionable for
// every generator; see instance.go for the grammar.
func (s *Scenario) Desc() string {
	var b []byte
	for _, a := range s.areas {
		if t, ok := termOf(a); ok {
			b = appendArea(b, t)
		} else {
			b = append(append(b, a.String()...), ';') // no grammar kind: best effort
		}
	}
	return string(finishDesc(appendLinks(b, s.links), 0))
}
