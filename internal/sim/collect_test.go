package sim

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/topology"
)

// degenerateWorld builds a complete 4-node topology whose nodes all
// sit at the origin: any failure area either misses every node (no
// failed paths) or covers all of them (no live initiators), so no
// test case of either kind can ever be produced. This is the
// exhaustion fixture for the collection cap.
func degenerateWorld(t *testing.T) *World {
	t.Helper()
	g := graph.New(4)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			g.MustAddLink(graph.NodeID(a), graph.NodeID(b))
		}
	}
	coords := make([]geom.Point, 4)
	w, err := NewWorldFrom(&topology.Topology{Name: "k4-origin", G: g, Coords: coords})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCollectCasesExhaustion: on a workload that can never be
// satisfied, collection must terminate after MaxCollectDraws and
// return short instead of spinning forever.
func TestCollectCasesExhaustion(t *testing.T) {
	w := degenerateWorld(t)
	rng := rand.New(rand.NewSource(5))
	if got, _ := CollectBothG(w, failure.Default(), rng, 3, 0); len(got) != 0 {
		t.Errorf("impossible recoverable workload returned %d cases", len(got))
	}
	if _, got := CollectBothG(w, failure.Default(), rng, 0, 3); len(got) != 0 {
		t.Errorf("impossible irrecoverable workload returned %d cases", len(got))
	}
}

func TestCollectBothExhaustion(t *testing.T) {
	w := degenerateWorld(t)
	rng := rand.New(rand.NewSource(6))
	rec, irr := CollectBothG(w, failure.Default(), rng, 2, 2)
	if len(rec) != 0 || len(irr) != 0 {
		t.Errorf("impossible workload returned %d+%d cases", len(rec), len(irr))
	}
}

// TestCollectBothCountsAndClassification: exact target counts, correct
// recoverable/irrecoverable classification on every returned case, and
// truncation of the overshoot (one scenario yields many cases at
// once).
func TestCollectBothCountsAndClassification(t *testing.T) {
	w, err := NewWorld("AS1239", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rec, irr := CollectBothG(w, failure.Default(), rng, 37, 23)
	if len(rec) != 37 || len(irr) != 23 {
		t.Fatalf("got %d+%d cases, want 37+23", len(rec), len(irr))
	}
	for _, c := range rec {
		if !c.Recoverable {
			t.Fatal("recoverable set contains an irrecoverable case")
		}
	}
	for _, c := range irr {
		if c.Recoverable {
			t.Fatal("irrecoverable set contains a recoverable case")
		}
	}
	// Classification must agree with ground truth recomputed from the
	// scenario: destination live and in the initiator's component.
	for _, c := range append(append([]*Case(nil), rec...), irr...) {
		truth := !c.Scenario.NodeDown(c.Dst) && w.Topo.G.Connected(c.Initiator, c.Dst, c.Scenario)
		if c.Recoverable != truth {
			t.Fatalf("case (%d->%d): Recoverable=%v, ground truth %v", c.Initiator, c.Dst, c.Recoverable, truth)
		}
	}
}

// TestCollectBothZeroTargets must return immediately with nothing.
func TestCollectBothZeroTargets(t *testing.T) {
	w := degenerateWorld(t)
	rng := rand.New(rand.NewSource(7))
	rec, irr := CollectBothG(w, failure.Default(), rng, 0, 0)
	if len(rec) != 0 || len(irr) != 0 {
		t.Errorf("zero targets returned %d+%d cases", len(rec), len(irr))
	}
}

// TestCollectCasesDeterministic: the same seed draws the same cases —
// the property shard execution is built on.
func TestCollectCasesDeterministic(t *testing.T) {
	w, err := NewWorld("AS1239", 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := CollectBothG(w, failure.Default(), rand.New(rand.NewSource(9)), 25, 0)
	b, _ := CollectBothG(w, failure.Default(), rand.New(rand.NewSource(9)), 25, 0)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Initiator != b[i].Initiator || a[i].Dst != b[i].Dst || a[i].Trigger != b[i].Trigger {
			t.Fatalf("case %d differs between identical-seed draws", i)
		}
	}
}
