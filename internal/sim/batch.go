package sim

import (
	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/par"
)

// groupKey identifies one shared recovery session: the scenario's
// converged.State plus the initiator and the trigger link pin down
// everything phase 1 and the pruned-view SPT depend on. All
// destinations under the same key share one collection walk and one
// shortest-path calculation — the paper's central efficiency claim.
type groupKey struct {
	st        *converged.State
	initiator graph.NodeID
	trigger   graph.LinkID
}

// caseGroup lists one group's member indices into the RunAll case
// slice, in input order.
type caseGroup struct {
	key   groupKey
	cases []int
}

// groupCases partitions cases into (scenario, initiator, trigger)
// groups, preserving first-appearance order of groups and input order
// within them so a serial run is deterministic. Cases that carry no
// State of their own get one per scenario, which lives as long as the
// groups do.
func groupCases(w *World, cases []*Case) []caseGroup {
	states := make(map[*failure.Scenario]*converged.State)
	idx := make(map[groupKey]int, len(cases))
	groups := make([]caseGroup, 0, len(cases))
	for i, c := range cases {
		st := c.State
		if st == nil {
			if st = states[c.Scenario]; st == nil {
				st = w.Converged(c.Scenario)
				states[c.Scenario] = st
			}
		}
		k := groupKey{st: st, initiator: c.Initiator, trigger: c.Trigger}
		gi, ok := idx[k]
		if !ok {
			gi = len(groups)
			idx[k] = gi
			groups = append(groups, caseGroup{key: k})
		}
		groups[gi].cases = append(groups[gi].cases, i)
	}
	return groups
}

// RunAllN is RunAll with an explicit worker count (GOMAXPROCS when
// workers <= 0). Execution is batched: cases are grouped by
// (scenario, initiator, trigger) and parallelism is per group, so
// workers never wait on each other's session; a group's members run
// in input order on one State's shared session and one route buffer.
// The outcome slice is bit-identical to running every case on its own
// fresh session, for any worker count — the differential tests assert
// it against the per-case oracle in batch_test.go.
func RunAllN(w *World, cases []*Case, workers int) []Outcome {
	out := make([]Outcome, len(cases))
	groups := groupCases(w, cases)
	par.For(len(groups), workers, func(gi int) {
		g := groups[gi]
		var rt core.Route
		for _, i := range g.cases {
			c := *cases[i]
			c.State = g.key.st
			out[i] = runCase(w, &c, &rt)
			out[i].Case = cases[i]
		}
	})
	return out
}

// runCase executes all three protocols on one case bound to a State.
// The first runner error stops the case; Truth is attached only when
// some protocol delivered, i.e. when grading actually read the tree.
func runCase(w *World, c *Case, rt *core.Route) (o Outcome) {
	var err error
	if o.RTR, err = runRTR(w, c, rt, nil); err != nil {
		o.Err = err
	} else if o.FCP, err = RunFCP(w, c, nil); err != nil {
		o.Err = err
	} else if o.MRC, err = RunMRC(w, c, nil); err != nil {
		o.Err = err
	}
	if o.RTR.Recovered || o.FCP.Delivered || o.MRC.Delivered {
		o.Truth = c.State.Truth(c.Initiator)
	}
	return o
}
