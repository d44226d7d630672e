// Command rtrtrace traces one RTR recovery hop by hop: the phase-1
// walk with the evolving failed_link / cross_link header fields
// (exactly the rows of the paper's Table I), followed by the phase-2
// recovery path. By default it replays the paper's worked example
// (Fig. 6 / Table I); any synthesized topology with a custom failure
// disk works too, given both endpoints as node IDs in [0, n).
//
// Usage:
//
//	rtrtrace                                    # the paper's Table I
//	rtrtrace -as AS209 -seed 1 -cx 900 -cy 1100 -r 220 -src 3 -dst 40
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

func main() {
	var (
		asName = flag.String("as", "", "Table II topology (empty: the paper's Fig. 6 fixture)")
		seed   = flag.Int64("seed", 1, "synthesis seed")
		cx     = flag.Float64("cx", 0, "failure area center x")
		cy     = flag.Float64("cy", 0, "failure area center y")
		radius = flag.Float64("r", 0, "failure area radius")
		srcIn  = flag.Int("src", -1, "source node (fixture default: v7)")
		dstIn  = flag.Int("dst", -1, "destination node (fixture default: v17)")
	)
	flag.Parse()

	var (
		topo *topology.Topology
		area geom.Disk
		src  graph.NodeID
		dst  graph.NodeID
	)
	if *asName == "" {
		topo = topology.PaperExample()
		area = topology.PaperFailureArea()
		src, dst = topology.PaperNode(7), topology.PaperNode(17)
	} else {
		p, ok := topology.ParamsFor(*asName)
		if !ok {
			fatalf("unknown topology %q", *asName)
		}
		var err error
		topo, err = topology.Generate(p, newRand(*seed))
		if err != nil {
			fatalf("%v", err)
		}
		area = geom.Disk{Center: geom.Point{X: *cx, Y: *cy}, Radius: *radius}
		if *srcIn < 0 || *dstIn < 0 {
			fatalf("-as needs both -src and -dst")
		}
	}
	if *srcIn >= 0 {
		src = graph.NodeID(*srcIn)
	}
	if *dstIn >= 0 {
		dst = graph.NodeID(*dstIn)
	}
	if n := topo.G.NumNodes(); int(src) >= n || int(dst) >= n {
		fatalf("-src %d -dst %d: %s has nodes 0..%d", src, dst, topo.Name, n-1)
	}
	if src == dst {
		fatalf("-src and -dst are both %d; they must differ", src)
	}

	sc := failure.NewScenario(topo, area)
	lv := routing.NewLocalView(topo, sc)
	tables := routing.ComputeTables(topo)
	fmt.Printf("topology %s: %s\n", topo.Name, sc)

	outcome, initiator, hops := routing.TraceDefault(tables, lv, src, dst)
	switch outcome {
	case routing.DefaultDelivered:
		fmt.Printf("converged path %s -> %s is unaffected; nothing to recover\n", name(src), name(dst))
		return
	case routing.DefaultSourceDown:
		fatalf("source %s failed", name(src))
	case routing.DefaultNoRoute:
		fatalf("no converged route %s -> %s", name(src), name(dst))
	}
	nh, trigger, _ := tables.NextHop(initiator, dst)
	fmt.Printf("packet %s -> %s blocked after %d hop(s): recovery initiator %s, unreachable next hop %s over %s\n\n",
		name(src), name(dst), hops, name(initiator), name(nh), linkName(topo, trigger))

	r := core.New(topo, nil)
	sess, err := r.NewSession(lv, initiator)
	if err != nil {
		fatalf("%v", err)
	}
	col, err := sess.Collect(trigger)
	if err != nil {
		fatalf("collect: %v", err)
	}

	fmt.Println("Phase 1 — collecting failure information (Table I format)")
	fmt.Printf("%-5s %-8s %-42s %s\n", "hop", "at", "failed_link", "cross_link")
	// Row k shows the header after the node at hop k processed the
	// packet — i.e. the contents on the wire of hop k+1 (the final row
	// shows the finished header), matching the paper's Table I rows.
	fmt.Printf("%-5d %-8s %-42s %s\n", 0, name(initiator), "-", linkList(topo, col.Header.CrossLinks[:initialCross(col)]))
	for i, rec := range col.Walk.Records {
		fs := core.FieldSizes{Failed: len(col.Header.FailedLinks), Cross: len(col.Header.CrossLinks)}
		if i+1 < len(col.FieldSizes) {
			fs = col.FieldSizes[i+1]
		}
		fmt.Printf("%-5d %-8s %-42s %s\n", i+1, name(rec.To),
			linkList(topo, col.Header.FailedLinks[:fs.Failed]),
			linkList(topo, col.Header.CrossLinks[:fs.Cross]))
	}
	fmt.Printf("\nfirst phase: %d hops, %.1f ms, enclosed=%v truncated=%v escapes=%d\n\n",
		col.Walk.Hops(), float64(col.Duration())/1e6, col.Enclosed, col.Truncated, col.Escapes)

	if est, ok := sess.EstimateArea(); ok {
		fmt.Printf("estimated failure area: center %v radius %.1f (truth: %v)\n\n", est.Center, est.Radius, area)
	}

	rt, ok := sess.RecoveryPath(dst)
	if !ok {
		fmt.Printf("Phase 2 — destination %s is unreachable in the pruned view: packets discarded immediately (1 SP calculation spent)\n", name(dst))
		return
	}
	fmt.Printf("Phase 2 — shortest recovery path (%d hops, cost %.0f): %s\n",
		rt.Hops(), rt.Cost, pathString(rt.Nodes))
	fwd := sess.ForwardSourceRouted(rt)
	if fwd.Delivered {
		fmt.Println("source-routed packet delivered over the recovery path")
	} else {
		fmt.Printf("packet dropped at %s: link %s failed but was not collected\n",
			name(fwd.DropAt), linkName(topo, fwd.DropLink))
	}
}

// initialCross derives hop 0's cross_link length: entries present
// before the first forwarding are exactly those carried on hop 1.
func initialCross(col *core.CollectResult) int {
	if len(col.FieldSizes) == 0 {
		return 0
	}
	// Hop 1's snapshot may already include a Constraint-2 insertion
	// for the first link; the seed set is never smaller than 0 and the
	// difference is at most one entry, so report hop 1's count minus
	// any first-link protection. Keeping it simple: report the count
	// before any failed link was recorded, which is hop 1's count when
	// no failure was recorded yet.
	return col.FieldSizes[0].Cross
}

func name(v graph.NodeID) string {
	return fmt.Sprintf("v%d", int(v)+1)
}

func linkName(t *topology.Topology, id graph.LinkID) string {
	l := t.G.Link(id)
	return fmt.Sprintf("e%d,%d", int(l.A)+1, int(l.B)+1)
}

func linkList(t *topology.Topology, ids []graph.LinkID) string {
	if len(ids) == 0 {
		return "-"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = linkName(t, id)
	}
	return strings.Join(parts, " ")
}

func pathString(nodes []graph.NodeID) string {
	parts := make([]string, len(nodes))
	for i, v := range nodes {
		parts[i] = name(v)
	}
	return strings.Join(parts, " -> ")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "rtrtrace: "+format+"\n", args...)
	os.Exit(1)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
