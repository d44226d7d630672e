package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/spt"
	"repro/internal/topology"
)

// RunAllPerCase is the pre-batching, pre-sharing runner, kept as the
// differential-test oracle: every case opens its own session, runs its
// own collection walk, computes its own pruned-view SPT, and grades
// against its own cold ground-truth Dijkstra — nothing comes from a
// converged.State. Batched RunAllN must produce an outcome slice
// identical to this one for any worker count.
func RunAllPerCase(w *World, cases []*Case, workers int) []Outcome {
	out := make([]Outcome, len(cases))
	par.For(len(cases), workers, func(i int) {
		out[i] = runCaseFresh(w, cases[i])
	})
	return out
}

func runCaseFresh(w *World, c *Case) Outcome {
	o := Outcome{Case: c}
	truth := spt.Compute(w.Topo.G, c.Initiator, c.Scenario)
	var err error
	if o.RTR, err = runRTRFresh(w, c, truth); err != nil {
		o.Err = err
	} else if o.FCP, err = RunFCP(w, c, truth); err != nil {
		o.Err = err
	} else if o.MRC, err = RunMRC(w, c, truth); err != nil {
		o.Err = err
	}
	if o.RTR.Recovered || o.FCP.Delivered || o.MRC.Delivered {
		o.Truth = truth
	}
	return o
}

// runRTRFresh is the per-case RTR reference: a fresh session, its own
// collection, and the error classification State.Session must match.
func runRTRFresh(w *World, c *Case, truth *spt.Tree) (RTRResult, error) {
	sess, err := w.RTR.NewSession(c.LV, c.Initiator)
	if err != nil {
		return RTRResult{}, err
	}
	col, err := sess.Collect(c.Trigger)
	if errors.Is(err, core.ErrNoLiveNeighbor) {
		return RTRResult{NoLiveNeighbor: true}, nil
	}
	if err != nil {
		return RTRResult{}, err
	}
	var rt core.Route
	return RunRTRSession(w, c, sess, col, &rt, truth), nil
}

// outcomesEqual compares two outcome slices the way the batching
// contract demands: identical protocol results, identical error text,
// and content-identical truth trees (the oracle's are cold Dijkstras,
// so this is also the warm-start bit-identity check).
func outcomesEqual(t *testing.T, label string, want, got []Outcome) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		a, b := &want[i], &got[i]
		if a.Case != b.Case {
			t.Fatalf("%s: case %d: case pointer mismatch", label, i)
		}
		if !reflect.DeepEqual(a.RTR, b.RTR) {
			t.Fatalf("%s: case %d: RTR differs:\n  want %+v\n  got  %+v", label, i, a.RTR, b.RTR)
		}
		if !reflect.DeepEqual(a.FCP, b.FCP) {
			t.Fatalf("%s: case %d: FCP differs:\n  want %+v\n  got  %+v", label, i, a.FCP, b.FCP)
		}
		if !reflect.DeepEqual(a.MRC, b.MRC) {
			t.Fatalf("%s: case %d: MRC differs:\n  want %+v\n  got  %+v", label, i, a.MRC, b.MRC)
		}
		ae, be := "", ""
		if a.Err != nil {
			ae = a.Err.Error()
		}
		if b.Err != nil {
			be = b.Err.Error()
		}
		if ae != be {
			t.Fatalf("%s: case %d: error differs: %q vs %q", label, i, ae, be)
		}
		if (a.Truth == nil) != (b.Truth == nil) {
			t.Fatalf("%s: case %d: truth nil-ness differs: %v vs %v", label, i, a.Truth == nil, b.Truth == nil)
		}
		if a.Truth != nil && !reflect.DeepEqual(*a.Truth, *b.Truth) {
			t.Fatalf("%s: case %d: truth tree content differs", label, i)
		}
	}
}

// TestBatchedMatchesPerCase is the tentpole's differential contract:
// on every bundled topology, batched execution must produce an outcome
// slice identical to the per-case oracle for every worker count.
func TestBatchedMatchesPerCase(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, as := range topology.ASNames() {
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			w, err := NewWorld(as, 3)
			if err != nil {
				t.Fatal(err)
			}
			rec, irr := CollectBoth(w, rand.New(rand.NewSource(17)), 40, 40)
			cases := append(rec, irr...)
			if len(cases) == 0 {
				t.Fatal("no cases drawn")
			}
			oracle := RunAllPerCase(w, cases, 1)
			for _, workers := range workerCounts {
				label := fmt.Sprintf("workers=%d", workers)
				outcomesEqual(t, label+"/batched", oracle, RunAllN(w, cases, workers))
				if workers != 1 {
					outcomesEqual(t, label+"/per-case", oracle, RunAllPerCase(w, cases, workers))
				}
			}
		})
	}
}

// erroringCases rewires valid cases so each one's trigger is a live
// link of its initiator: collection then fails deterministically with
// core.ErrNotUnreachable before any work is done.
func erroringCases(t *testing.T, w *World, cases []*Case) []*Case {
	t.Helper()
	var out []*Case
	for _, c := range cases {
		for _, he := range w.Topo.G.Adj(c.Initiator) {
			if !c.LV.NeighborUnreachable(c.Initiator, he.Link) {
				bad := *c
				bad.Trigger = he.Link
				bad.NextHop = he.Neighbor
				out = append(out, &bad)
				break
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("could not build erroring cases")
	}
	return out
}

// TestBatchedMatchesPerCaseOnErrors pins the error path: a group whose
// collection fails must yield the same per-case outcomes (error set,
// FCP/MRC skipped) as the oracle.
func TestBatchedMatchesPerCaseOnErrors(t *testing.T) {
	w, cases := collectTestCases(t)
	bad := erroringCases(t, w, cases[:40])
	mixed := append(append([]*Case(nil), bad...), cases[:40]...)
	oracle := RunAllPerCase(w, mixed, 1)
	for _, workers := range []int{1, 4} {
		outcomesEqual(t, fmt.Sprintf("workers=%d", workers), oracle, RunAllN(w, mixed, workers))
	}
	for i := range bad {
		if oracle[i].Err == nil {
			t.Fatalf("erroring case %d ran without error", i)
		}
	}
}

// TestTruthCacheCounts is the sharing and laziness regression test:
// within one run there is one truth tree per graded (scenario,
// initiator) pair — every outcome of a pair holds the same pointer,
// and cases built on an owner's State hold that State's tree — and a
// workload where every case errors early attaches no tree at all.
func TestTruthCacheCounts(t *testing.T) {
	w, cases := collectTestCases(t)
	type pair struct {
		sc   *failure.Scenario
		root graph.NodeID
	}
	trees := map[pair]*spt.Tree{}
	graded := 0
	for i, o := range RunAllN(w, cases, 4) {
		if o.Truth == nil {
			continue
		}
		graded++
		k := pair{o.Case.Scenario, o.Case.Initiator}
		if prev, ok := trees[k]; ok && prev != o.Truth {
			t.Fatalf("case %d: second truth tree for one (scenario, initiator)", i)
		}
		trees[k] = o.Truth
	}
	if len(trees) == 0 {
		t.Fatal("workload graded nothing; test is vacuous")
	}
	if graded <= len(trees) {
		t.Errorf("no sharing: %d graded outcomes over %d trees", graded, len(trees))
	}

	// Cases an owner built on its own State ride that State.
	st := w.Converged(cases[0].Scenario)
	var owned []*Case
	for _, c := range cases {
		if c.Scenario == st.Scenario() {
			oc, err := CaseAt(st, c.Initiator, c.Dst)
			if err != nil {
				t.Fatal(err)
			}
			owned = append(owned, oc)
		}
	}
	for i, o := range RunAllN(w, owned, 4) {
		if o.Truth != nil && o.Truth != st.Truth(o.Case.Initiator) {
			t.Fatalf("owned case %d: outcome tree is not its State's", i)
		}
	}

	for i, o := range RunAllN(w, erroringCases(t, w, cases[:30]), 4) {
		if o.Err == nil {
			t.Fatalf("case %d: expected an error", i)
		}
		if o.Truth != nil {
			t.Errorf("case %d: errored before grading but carries a truth tree", i)
		}
	}
}

// TestGroupCases pins the grouping key and order: first-appearance
// group order, input order within groups, one group per distinct
// (scenario, initiator, trigger), and one State per scenario for cases
// that carry none.
func TestGroupCases(t *testing.T) {
	w, cases := collectTestCases(t)
	groups := groupCases(w, cases)
	seen := 0
	keys := map[groupKey]bool{}
	states := map[*failure.Scenario]*converged.State{}
	for gi, g := range groups {
		if keys[g.key] {
			t.Fatalf("group %d: duplicate key", gi)
		}
		keys[g.key] = true
		if len(g.cases) == 0 {
			t.Fatalf("group %d: empty", gi)
		}
		sc := g.key.st.Scenario()
		if prev, ok := states[sc]; ok && prev != g.key.st {
			t.Fatalf("group %d: second State for one scenario", gi)
		}
		states[sc] = g.key.st
		prev := -1
		for _, i := range g.cases {
			c := cases[i]
			if c.Scenario != sc || c.Initiator != g.key.initiator || c.Trigger != g.key.trigger {
				t.Fatalf("group %d: case %d does not match key", gi, i)
			}
			if i <= prev {
				t.Fatalf("group %d: member indices out of order", gi)
			}
			prev = i
			seen++
		}
	}
	if seen != len(cases) {
		t.Fatalf("groups cover %d cases, want %d", seen, len(cases))
	}
	if len(groups) >= len(cases) {
		t.Fatalf("no sharing: %d groups for %d cases (workload should have multi-destination groups)", len(groups), len(cases))
	}
}

// TestRecoveryPathIntoReusesBacking checks the buffer-reuse contract
// RunAllN's groups rely on: consecutive extractions into one Route
// reuse its arrays and still match the allocating path.
func TestRecoveryPathIntoReusesBacking(t *testing.T) {
	w, cases := collectTestCases(t)
	var c *Case
	for _, cand := range cases {
		if cand.Recoverable {
			c = cand
			break
		}
	}
	if c == nil {
		t.Fatal("no recoverable case")
	}
	sess, err := w.RTR.NewSession(c.LV, c.Initiator)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Collect(c.Trigger); err != nil {
		t.Fatal(err)
	}
	var rt core.Route
	n := w.Topo.G.NumNodes()
	for d := 0; d < n; d++ {
		dst := graph.NodeID(d)
		if dst == c.Initiator {
			continue
		}
		ok := sess.RecoveryPathInto(&rt, dst)
		want, wantOK := sess.RecoveryPath(dst)
		if ok != wantOK {
			t.Fatalf("dst %d: ok=%v, want %v", d, ok, wantOK)
		}
		if !ok {
			continue
		}
		if !reflect.DeepEqual(rt.Nodes, want.Nodes) || !reflect.DeepEqual(rt.Links, want.Links) || rt.Cost != want.Cost {
			t.Fatalf("dst %d: reused-buffer route differs from allocating route", d)
		}
	}
}
