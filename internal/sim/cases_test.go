package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// quadraticCases is the enumerator CasesFromScenario replaced, kept as
// its reference: scan all n^2 (initiator, destination) pairs, test the
// paper's condition directly, and classify by component membership
// computed here — nothing comes from converged.State or from the
// failure-adjacency candidate set.
func quadraticCases(w *World, sc *failure.Scenario) (rec, irr []caseKey) {
	lv := routing.NewLocalView(w.Topo, sc)
	n := w.Topo.G.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for ci, c := range w.Topo.G.Components(sc) {
		for _, v := range c {
			comp[v] = ci
		}
	}
	for i := 0; i < n; i++ {
		initiator := graph.NodeID(i)
		if sc.NodeDown(initiator) {
			continue
		}
		for d := 0; d < n; d++ {
			dst := graph.NodeID(d)
			if dst == initiator {
				continue
			}
			nh, link, ok := w.Tables.NextHop(initiator, dst)
			if !ok || !lv.NeighborUnreachable(initiator, link) {
				continue
			}
			k := caseKey{uint32(initiator), uint32(dst), uint32(nh), uint32(link),
				!sc.NodeDown(dst) && comp[initiator] >= 0 && comp[initiator] == comp[dst]}
			if k.Recoverable {
				rec = append(rec, k)
			} else {
				irr = append(irr, k)
			}
		}
	}
	return rec, irr
}

// TestCasesFromScenarioMatchesQuadraticReference: on every bundled
// topology the candidate-initiator enumeration yields exactly the n^2
// scan's cases, in the same order, with the same classification — the
// candidate set is exact, not a heuristic.
func TestCasesFromScenarioMatchesQuadraticReference(t *testing.T) {
	for _, as := range topology.ASNames() {
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			w, err := NewWorld(as, 7)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			cases := 0
			for draw := 0; draw < 8; draw++ {
				sc := failure.Default().Generate(w.Topo, rng)
				wantRec, wantIrr := quadraticCases(w, sc)
				gotRec, gotIrr := CasesFromScenario(w, sc)
				if !reflect.DeepEqual(caseKeys(gotRec), wantRec) && len(gotRec)+len(wantRec) > 0 {
					t.Fatalf("draw %d: recoverable cases differ from the n^2 scan", draw)
				}
				if !reflect.DeepEqual(caseKeys(gotIrr), wantIrr) && len(gotIrr)+len(wantIrr) > 0 {
					t.Fatalf("draw %d: irrecoverable cases differ from the n^2 scan", draw)
				}
				for _, c := range append(gotRec, gotIrr...) {
					if c.State != nil {
						t.Fatalf("draw %d: enumerated case %d->%d pins the enumeration's State", draw, c.Initiator, c.Dst)
					}
				}
				cases += len(wantRec) + len(wantIrr)
			}
			if cases == 0 {
				t.Fatal("no cases drawn; test is vacuous")
			}
		})
	}
}
