package core_test

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The full RTR pipeline on the paper's worked example (Figs. 1/2/6):
// the routing path v7 -> v6 -> v11 -> v15 -> v17 is cut, v6 collects
// the failure information and source-routes around it.
func Example() {
	topo := topology.PaperExample()
	tables := routing.ComputeTables(topo)
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	lv := routing.NewLocalView(topo, sc)

	src, dst := topology.PaperNode(7), topology.PaperNode(17)
	_, initiator, _ := routing.TraceDefault(tables, lv, src, dst)

	rtr := core.New(topo, nil)
	sess, _ := rtr.NewSession(lv, initiator)
	_, trigger, _ := tables.NextHop(initiator, dst)
	col, _ := sess.Collect(trigger)
	route, _ := sess.RecoveryPath(dst)
	fwd := sess.ForwardSourceRouted(route)

	fmt.Printf("initiator v%d walked %d hops and collected %d failed links\n",
		initiator+1, col.Walk.Hops(), len(col.Header.FailedLinks))
	fmt.Printf("recovery path has %d hops; delivered: %v; SP calculations: %d\n",
		route.Hops(), fwd.Delivered, sess.SPCalcs())
	path := make([]string, len(route.Nodes))
	for i, v := range route.Nodes {
		path[i] = fmt.Sprintf("v%d", v+1)
	}
	fmt.Println(strings.Join(path, " -> "))
	// Output:
	// initiator v6 walked 11 hops and collected 5 failed links
	// recovery path has 5 hops; delivered: true; SP calculations: 1
	// v6 -> v5 -> v12 -> v11 -> v15 -> v17
}

// Collecting failure information once serves every destination the
// initiator must recover.
func ExampleSession_RecoveryPath() {
	topo := topology.PaperExample()
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	lv := routing.NewLocalView(topo, sc)

	rtr := core.New(topo, nil)
	sess, _ := rtr.NewSession(lv, topology.PaperNode(6))
	if _, err := sess.Collect(topology.PaperLink(topo, 6, 11)); err != nil {
		fmt.Println(err)
		return
	}
	for _, k := range []int{17, 15, 10} {
		if rt, ok := sess.RecoveryPath(topology.PaperNode(k)); ok {
			fmt.Printf("v%d reachable in %d hops\n", k, rt.Hops())
		} else {
			fmt.Printf("v%d unreachable: discard immediately\n", k)
		}
	}
	fmt.Printf("shortest-path calculations spent: %d\n", sess.SPCalcs())
	// Output:
	// v17 reachable in 5 hops
	// v15 reachable in 4 hops
	// v10 unreachable: discard immediately
	// shortest-path calculations spent: 1
}

// The initiator can localize the failure geometrically from what the
// walk collected.
func ExampleSession_EstimateArea() {
	topo := topology.PaperExample()
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	lv := routing.NewLocalView(topo, sc)

	rtr := core.New(topo, nil)
	sess, _ := rtr.NewSession(lv, topology.PaperNode(6))
	if _, err := sess.Collect(topology.PaperLink(topo, 6, 11)); err != nil {
		fmt.Println(err)
		return
	}
	est, ok := sess.EstimateArea()
	truth := topology.PaperFailureArea()
	fmt.Printf("estimated: %v, center error %.0f\n", ok, est.Center.Dist(truth.Center))
	// Output:
	// estimated: true, center error 39
}
