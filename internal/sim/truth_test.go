package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/spt"
)

// collectTestCases draws a mixed workload from a few random scenarios.
func collectTestCases(t *testing.T) (*World, []*Case) {
	t.Helper()
	w, err := NewWorld("AS1239", 11)
	if err != nil {
		t.Fatal(err)
	}
	rec, irr := CollectBothG(w, failure.Default(), rand.New(rand.NewSource(42)), 120, 120)
	return w, append(rec, irr...)
}

// TestTruthTreeMatchesFreshCompute is the cache half of the
// differential-test contract: whenever RunAll computed a truth tree it
// must be node-for-node identical (Dist, Parent, ParentLink) to a
// fresh uncached spt.Compute. Truth is lazy, so it may be nil — but
// only on cases where no protocol delivered anything, i.e. nothing
// needed grading.
func TestTruthTreeMatchesFreshCompute(t *testing.T) {
	w, cases := collectTestCases(t)
	outs := RunAll(w, cases)
	graded := 0
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("case %d: %v", i, o.Err)
		}
		if o.Truth == nil {
			if o.RTR.Recovered || o.FCP.Delivered || o.MRC.Delivered {
				t.Fatalf("case %d: Truth nil although a protocol delivered", i)
			}
			continue
		}
		graded++
		c := o.Case
		want := spt.Compute(w.Topo.G, c.Initiator, c.Scenario)
		if want.Root != o.Truth.Root || want.Kind != o.Truth.Kind {
			t.Fatalf("case %d: root/kind mismatch", i)
		}
		for v := range want.Dist {
			if want.Dist[v] != o.Truth.Dist[v] ||
				want.Parent[v] != o.Truth.Parent[v] ||
				want.ParentLink[v] != o.Truth.ParentLink[v] {
				t.Fatalf("case %d: cached truth tree diverges at node %d: (%v,%d,%d) vs (%v,%d,%d)",
					i, v, o.Truth.Dist[v], o.Truth.Parent[v], o.Truth.ParentLink[v],
					want.Dist[v], want.Parent[v], want.ParentLink[v])
			}
		}
	}
	if graded == 0 {
		t.Fatal("no case exercised the truth cache")
	}
}

// TestRunnersIdenticalWithAndWithoutSharedTruth checks that handing the
// runners a shared truth tree changes no metric: every RTR/FCP/MRC
// result must equal the nil-truth (compute-on-demand) path.
func TestRunnersIdenticalWithAndWithoutSharedTruth(t *testing.T) {
	w, cases := collectTestCases(t)
	outs := RunAll(w, cases)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("case %d: %v", i, o.Err)
		}
		c := o.Case
		rtr, err := RunRTR(w, c, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		fcp, err := RunFCP(w, c, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		mrc, err := RunMRC(w, c, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(o.RTR, rtr) {
			t.Fatalf("case %d: RTR differs with shared truth:\n  shared: %+v\n  fresh:  %+v", i, o.RTR, rtr)
		}
		if !reflect.DeepEqual(o.FCP, fcp) {
			t.Fatalf("case %d: FCP differs with shared truth:\n  shared: %+v\n  fresh:  %+v", i, o.FCP, fcp)
		}
		if !reflect.DeepEqual(o.MRC, mrc) {
			t.Fatalf("case %d: MRC differs with shared truth:\n  shared: %+v\n  fresh:  %+v", i, o.MRC, mrc)
		}
	}
}

// TestRunAllNWorkerCountsAgree checks that the worker count is purely a
// throughput knob: serial and parallel runs produce identical outcomes.
func TestRunAllNWorkerCountsAgree(t *testing.T) {
	w, cases := collectTestCases(t)
	serial := RunAllN(w, cases, 1)
	parallel := RunAllN(w, cases, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].RTR, parallel[i].RTR) ||
			!reflect.DeepEqual(serial[i].FCP, parallel[i].FCP) ||
			!reflect.DeepEqual(serial[i].MRC, parallel[i].MRC) {
			t.Fatalf("case %d: serial and parallel outcomes differ", i)
		}
	}
}
