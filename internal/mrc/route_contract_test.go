package mrc

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestRouteExcludeContract is the table-driven audit of Route's
// exclude/haveExclude contract, covering both the backbone-source and
// isolated-source branches — including the isolated-link rule this
// audit flushed out: a link between two nodes isolated in the same
// configuration carries no traffic in it, even as a first hop straight
// to the destination.
func TestRouteExcludeContract(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 3)
	m := build(t, topo)
	g := topo.G
	n := g.NumNodes()

	// Fixture search: a backbone source and an isolated source for some
	// configuration, with a destination far enough away to have a route.
	findBackbone := func() (c int, src, dst graph.NodeID, firstLink graph.LinkID) {
		for v := 0; v < n; v++ {
			src = graph.NodeID(v)
			for c = 0; c < m.Configs(); c++ {
				if m.ConfigOf(src) == c {
					continue
				}
				for d := 0; d < n; d++ {
					dst = graph.NodeID(d)
					if dst == src {
						continue
					}
					if _, links, ok := m.Route(c, src, dst, 0, false); ok && len(links) > 0 {
						return c, src, dst, links[0]
					}
				}
			}
		}
		t.Fatal("no backbone route found")
		return
	}
	findIsolated := func() (c int, src, dst graph.NodeID, firstLink graph.LinkID) {
		for v := 0; v < n; v++ {
			src = graph.NodeID(v)
			c = m.ConfigOf(src)
			if c == Unisolated {
				continue
			}
			for d := 0; d < n; d++ {
				dst = graph.NodeID(d)
				if dst == src {
					continue
				}
				if _, links, ok := m.Route(c, src, dst, 0, false); ok && len(links) > 0 {
					return c, src, dst, links[0]
				}
			}
		}
		t.Fatal("no isolated-source route found")
		return
	}

	t.Run("self-delivery-ignores-isolation", func(t *testing.T) {
		// src == dst short-circuits before any isolation logic — this is
		// why the old isolated-branch re-check of src == dst was dead.
		for v := 0; v < n; v++ {
			src := graph.NodeID(v)
			for c := 0; c < m.Configs(); c++ {
				nodes, links, ok := m.Route(c, src, src, 0, true)
				if !ok || len(nodes) != 1 || nodes[0] != src || len(links) != 0 {
					t.Fatalf("Route(c=%d, %d, %d) = (%v, %v, %v), want trivial self route",
						c, src, src, nodes, links, ok)
				}
			}
		}
	})

	t.Run("backbone-exclude-rejects-first-hop", func(t *testing.T) {
		c, src, dst, first := findBackbone()
		if _, _, ok := m.Route(c, src, dst, first, true); ok {
			// The contract is reject, not reroute: the caller (Recover)
			// treats a first hop over the observed failure as no route.
			nodes, links, _ := m.Route(c, src, dst, first, true)
			t.Fatalf("route %v (links %v) returned despite excluded first hop", nodes, links)
		}
	})

	t.Run("backbone-have-exclude-false-ignores-link", func(t *testing.T) {
		c, src, dst, first := findBackbone()
		nodes, links, ok := m.Route(c, src, dst, first, false)
		if !ok || links[0] != first {
			t.Fatalf("haveExclude=false must ignore exclude: got (%v, %v, %v)", nodes, links, ok)
		}
	})

	t.Run("isolated-source-leaves-over-restricted-link", func(t *testing.T) {
		c, src, dst, first := findIsolated()
		nodes, links, ok := m.Route(c, src, dst, 0, false)
		if !ok {
			t.Fatal("fixture route vanished")
		}
		if nodes[0] != src || links[0] != first {
			t.Fatalf("unexpected route head: %v / %v", nodes, links)
		}
		if far := g.Link(links[0]).Other(src); m.ConfigOf(far) == c && far != dst {
			t.Fatalf("restricted first hop lands on node %d, still isolated in %d", far, c)
		}
		// Interior nodes are backbone nodes.
		for _, v := range nodes[1 : len(nodes)-1] {
			if m.ConfigOf(v) == c {
				t.Fatalf("route %v transits node %d isolated in config %d", nodes, v, c)
			}
		}
	})

	t.Run("isolated-source-honors-exclude", func(t *testing.T) {
		c, src, dst, first := findIsolated()
		nodes, links, ok := m.Route(c, src, dst, first, true)
		if ok && links[0] == first {
			t.Fatalf("route %v leaves over the excluded link %d", nodes, first)
		}
	})

	t.Run("isolated-isolated-link-unusable-even-to-dst", func(t *testing.T) {
		// The audited branch: src and dst isolated in the same
		// configuration, directly adjacent. The connecting link is an
		// isolated link of that configuration, so the route must not use
		// it — not even as a single-hop delivery (the tree already
		// treats it as down; the restricted first-hop scan must too).
		found := false
		for i := 0; i < g.NumLinks() && !found; i++ {
			l := g.Link(graph.LinkID(i))
			c := m.ConfigOf(l.A)
			if c == Unisolated || m.ConfigOf(l.B) != c {
				continue
			}
			found = true
			for _, pair := range [][2]graph.NodeID{{l.A, l.B}, {l.B, l.A}} {
				src, dst := pair[0], pair[1]
				nodes, links, ok := m.Route(c, src, dst, 0, false)
				if !ok {
					continue // no alternative route: acceptable
				}
				for _, used := range links {
					if used == l.ID {
						t.Fatalf("route %v (src %d -> dst %d in config %d) uses the isolated link %v",
							nodes, src, dst, c, l)
					}
				}
				if far := g.Link(links[0]).Other(src); m.ConfigOf(far) == c && far != dst {
					t.Fatalf("first hop of %v lands on isolated node %d", nodes, far)
				}
			}
		}
		if !found {
			t.Skip("no link with both endpoints isolated in one configuration")
		}
	})
}

// TestRouteExcludeEveryFirstHop sweeps the exclude contract over every
// configuration and source (destinations strided to keep it fast):
// excluding a route's canonical first hop rejects a backbone source's
// route and makes an isolated source leave over another restricted
// link, and haveExclude=false ignores the same link entirely.
func TestRouteExcludeEveryFirstHop(t *testing.T) {
	for _, as := range []string{"AS1239", "AS3320"} {
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			topo := topology.GenerateAS(as, 3)
			m := build(t, topo)
			n := topo.G.NumNodes()
			checked := 0
			for c := 0; c < m.Configs(); c++ {
				for s := 0; s < n; s++ {
					src := graph.NodeID(s)
					for d := s % 3; d < n; d += 3 {
						dst := graph.NodeID(d)
						nodes, links, ok := m.Route(c, src, dst, 0, false)
						if !ok || len(links) == 0 {
							continue
						}
						ex := links[0]
						ignN, ignL, ignOK := m.Route(c, src, dst, ex, false)
						if !ignOK || !slices.Equal(ignN, nodes) || !slices.Equal(ignL, links) {
							t.Fatalf("Route(c=%d, %d->%d, exclude=%d, false) = %v %v %v, want %v %v",
								c, src, dst, ex, ignN, ignL, ignOK, nodes, links)
						}
						exN, exL, exOK := m.Route(c, src, dst, ex, true)
						checked++
						if m.ConfigOf(src) != c {
							if exOK {
								t.Fatalf("Route(c=%d, %d->%d) kept excluded first hop %d: %v", c, src, dst, ex, exN)
							}
							continue
						}
						if !exOK {
							continue // no other restricted link reaches dst
						}
						if exL[0] == ex || exN[0] != src || exN[len(exN)-1] != dst || len(exL) != len(exN)-1 {
							t.Fatalf("Route(c=%d, %d->%d, exclude=%d) = %v %v", c, src, dst, ex, exN, exL)
						}
					}
				}
			}
			if checked == 0 {
				t.Fatal("no routes checked")
			}
		})
	}
}
