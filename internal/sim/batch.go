package sim

import (
	"errors"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/spt"
)

// groupKey identifies one shared recovery session. Cases of one
// scenario share a single LocalView (CasesFromScenario builds exactly
// one), so the view pointer is scenario identity; combined with the
// initiator and the trigger link it pins down everything phase 1 and
// the pruned-view SPT depend on. All destinations under the same key
// therefore share one collection walk and one shortest-path
// calculation — the paper's central efficiency claim, which the
// simulator previously re-paid per case.
type groupKey struct {
	lv        *routing.LocalView
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
// groups, preserving first-appearance order so a serial run visits
// groups deterministically.
func groupCases(cases []*Case) []caseGroup {
	idx := make(map[groupKey]int, len(cases))
	groups := make([]caseGroup, 0, len(cases))
	for i, c := range cases {
		k := groupKey{lv: c.LV, initiator: c.Initiator, trigger: c.Trigger}
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
// (scenario, initiator, trigger), each group runs phase-1 collection
// and the single pruned-view SPT once on a shared core.Session, and
// the per-destination tail fans out inside the group. Parallelism is
// per group. The outcome slice is bit-identical to running every case
// on its own session, for any worker count — the differential tests
// assert it against the per-case oracle in batch_test.go.
func RunAllN(w *World, cases []*Case, workers int) []Outcome {
	out, _ := runAllN(w, cases, workers)
	return out
}

// runAllN additionally returns the truth cache so tests can assert
// request/build counts.
func runAllN(w *World, cases []*Case, workers int) ([]Outcome, *truthCache) {
	out := make([]Outcome, len(cases))
	truths := newTruthCache(w)
	groups := groupCases(cases)
	par.For(len(groups), workers, func(gi int) {
		runGroup(w, truths, cases, groups[gi], out)
	})
	return out, truths
}

// runGroup executes one case group on a shared session. Collection
// and its error classification happen once; every member destination
// then reuses the session's cached collect result and recovery tree,
// keeping SPCalcs at the per-case value (the session computes its tree
// once and never re-counts it per destination). The route buffer and
// the lazily computed truth tree are also shared across the group.
func runGroup(w *World, truths *truthCache, cases []*Case, g caseGroup, out []Outcome) {
	sess, sessErr := w.RTR.NewSession(g.key.lv, g.key.initiator)
	var col *core.CollectResult
	noLive := false
	if sessErr == nil {
		var err error
		col, err = sess.Collect(g.key.trigger)
		switch {
		case errors.Is(err, core.ErrNoLiveNeighbor):
			noLive = true
		case err != nil:
			sessErr = err
		}
	}
	var rt core.Route
	for _, i := range g.cases {
		c := cases[i]
		o := Outcome{Case: c}
		var tt *spt.Tree
		truth := func() *spt.Tree {
			if tt == nil {
				tt = truths.tree(c)
			}
			return tt
		}
		var err error
		switch {
		case sessErr != nil:
			err = sessErr
		case noLive:
			o.RTR = RTRResult{NoLiveNeighbor: true}
		default:
			finishRTR(&o.RTR, w, c, sess, col, &rt, truth)
		}
		if err != nil {
			o.Err = err
		} else if o.FCP, err = runFCP(w, c, truth); err != nil {
			o.Err = err
		} else if o.MRC, err = runMRC(w, c, truth); err != nil {
			o.Err = err
		}
		o.Truth = tt
		out[i] = o
	}
}
