// Command rtrtrace traces one RTR recovery hop by hop: the answer
// sim.RunCase returns (the one rtrsimd serves for scheme=rtr), printed
// as the phase-1 walk with the evolving failed_link / cross_link
// header fields (exactly the rows of the paper's Table I), the phase-2
// recovery path and, for a dropped packet, its sim.Explain line. By
// default it replays the paper's worked example (Fig. 6 / Table I); any
// synthesized topology with a custom failure disk works too, given
// both endpoints as node IDs in [0, n).
//
// Usage:
//
//	rtrtrace                                    # the paper's Table I
//	rtrtrace -as AS209 -seed 1 -cx 900 -cy 1100 -r 220 -src 3 -dst 40
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
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
		w    *sim.World
		err  error
		area geom.Disk
		src  graph.NodeID
		dst  graph.NodeID
	)
	if *asName == "" {
		w, err = sim.NewWorldFrom(topology.PaperExample())
		area = topology.PaperFailureArea()
		src, dst = topology.PaperNode(7), topology.PaperNode(17)
	} else {
		if *srcIn < 0 || *dstIn < 0 {
			fatalf("-as needs both -src and -dst")
		}
		w, err = sim.NewWorld(*asName, *seed)
		area = geom.Disk{Center: geom.Point{X: *cx, Y: *cy}, Radius: *radius}
	}
	if err != nil {
		fatalf("%v", err)
	}
	topo := w.Topo
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
	st := w.Converged(sc)
	fmt.Printf("topology %s: %s\n", topo.Name, sc)

	outcome, initiator, hops := routing.TraceDefault(st.Pre(), st.LocalView(), src, dst)
	switch outcome {
	case routing.DefaultDelivered:
		fmt.Printf("converged path %s -> %s is unaffected; nothing to recover\n", name(src), name(dst))
		return
	case routing.DefaultSourceDown:
		fatalf("source %s failed", name(src))
	case routing.DefaultNoRoute:
		fatalf("no converged route %s -> %s", name(src), name(dst))
	}
	c, err := sim.CaseAt(st, initiator, dst)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("packet %s -> %s blocked after %d hop(s): recovery initiator %s, unreachable next hop %s over %s\n\n",
		name(src), name(dst), hops, name(initiator), name(c.NextHop), linkName(topo, c.Trigger))

	var rt core.Route
	o := sim.RunCase(w, c, sim.PaperSchemes()[:1], &rt) // rtr alone
	switch {
	case o.Err != nil:
		fatalf("%v", o.Err)
	case o.RTR.NoLiveNeighbor:
		fatalf("recovery initiator %s has no live neighbor: recovery is impossible", name(initiator))
	}
	col := o.RTR.Session.Collected()

	fmt.Println("Phase 1 — collecting failure information (Table I format)")
	fmt.Printf("%-5s %-8s %-42s %s\n", "hop", "at", "failed_link", "cross_link")
	// Row k shows the header after the node at hop k processed the
	// packet — i.e. the contents on the wire of hop k+1 (the final row
	// shows the finished header), matching the paper's Table I rows.
	at := initiator
	for k := 0; k <= len(col.Walk.Records); k++ {
		if k > 0 {
			at = col.Walk.Records[k-1].To
		}
		fs := core.FieldSizes{Failed: len(col.Header.FailedLinks), Cross: len(col.Header.CrossLinks)}
		if k < len(col.FieldSizes) {
			fs = col.FieldSizes[k]
		}
		fmt.Printf("%-5d %-8s %-42s %s\n", k, name(at),
			linkList(topo, col.Header.FailedLinks[:fs.Failed]),
			linkList(topo, col.Header.CrossLinks[:fs.Cross]))
	}
	fmt.Printf("\nfirst phase: %d hops, %.1f ms, enclosed=%v truncated=%v escapes=%d\n\n",
		col.Walk.Hops(), float64(col.Duration())/1e6, col.Enclosed, col.Truncated, col.Escapes)

	if est, ok := o.RTR.Session.EstimateArea(); ok {
		fmt.Printf("estimated failure area: center %v radius %.1f (truth: %v)\n\n", est.Center, est.Radius, area)
	}

	if o.RTR.IdentifiedUnreachable {
		fmt.Printf("Phase 2 — destination %s is unreachable in the pruned view: packets discarded immediately (1 SP calculation spent)\n", name(dst))
		return
	}
	fmt.Printf("Phase 2 — shortest recovery path (%d hops, cost %.0f): %s\n",
		rt.Hops(), rt.Cost, pathString(rt.Nodes))
	if o.RTR.Recovered {
		fmt.Println("source-routed packet delivered over the recovery path")
		return
	}
	e, _ := sim.Explain(&o)
	fmt.Printf("packet dropped at %s: link %s failed but was not collected\n",
		name(o.RTR.DropAt), linkName(topo, e.DropLink))
	fmt.Printf("explanation: walk visited an end of %s=%v, its failure cluster %d of %d seen=%v, clusters unseen=%d\n",
		linkName(topo, e.DropLink), e.VisitedDrop, e.DropCluster+1, e.Clusters, e.DropSeen, e.Unseen)
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
