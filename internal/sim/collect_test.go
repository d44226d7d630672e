package sim

import (
	"fmt"
	"math/rand"
	"reflect"
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

// collectByFullEnumeration is the collection loop CollectBothSampledG
// replaced, kept as its reference: enumerate every case of each drawn
// scenario, append while a kind is short, truncate the overshoot.
func collectByFullEnumeration(w *World, g failure.Generator, rng *rand.Rand, wantRec, wantIrr, dstSample int) (rec, irr []*Case) {
	for draws := 0; (len(rec) < wantRec || len(irr) < wantIrr) && draws < MaxCollectDraws; draws++ {
		sc := g.Generate(w.Topo, rng)
		r, i := ScaleCasesFromScenario(w, sc, rng, dstSample)
		if len(rec) < wantRec {
			rec = append(rec, r...)
		}
		if len(irr) < wantIrr {
			irr = append(irr, i...)
		}
	}
	if len(rec) > wantRec {
		rec = rec[:wantRec]
	}
	if len(irr) > wantIrr {
		irr = irr[:wantIrr]
	}
	return rec, irr
}

// countingGen counts the scenarios a collection draws.
type countingGen struct {
	failure.Generator
	draws int
}

func (g *countingGen) Generate(topo *topology.Topology, rng *rand.Rand) *failure.Scenario {
	g.draws++
	return g.Generator.Generate(topo, rng)
}

// collectedCase is a collected case's identity: its scalars and the
// descriptor of the scenario it was drawn from.
type collectedCase struct {
	caseKey
	Desc string
}

func collectedCases(cs []*Case) []collectedCase {
	out := make([]collectedCase, len(cs))
	for i, c := range cs {
		out[i] = collectedCase{caseKeys([]*Case{c})[0], c.Scenario.Desc()}
	}
	return out
}

// TestCollectBothMatchesFullEnumeration: collection that builds only
// the cases its quota keeps returns exactly what enumerating every case
// and truncating returns, from the same number of drawn scenarios, and
// leaves the rng where the full enumeration leaves it — on every
// Table II map, for the generator families the sweep smoke runs, with
// full and sampled destinations, and for quotas that fill one kind
// long before the other.
func TestCollectBothMatchesFullEnumeration(t *testing.T) {
	specs := []string{"disks:k=2,disjoint", "disks:k=3", "cut:w=150", "srlg:g=9,n=2"}
	quotas := [][2]int{{5, 5}, {0, 5}, {5, 0}, {1, 40}}
	for _, as := range topology.ASNames() {
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			w, err := NewWorld(as, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				gen, err := failure.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 3; seed++ {
					for _, dstSample := range []int{0, 8} {
						for _, q := range quotas {
							label := fmt.Sprintf("%s seed %d dsts %d quota %v", spec, seed, dstSample, q)
							wantGen, gotGen := &countingGen{Generator: gen}, &countingGen{Generator: gen}
							wantRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
							wantRec, wantIrr := collectByFullEnumeration(w, wantGen, wantRng, q[0], q[1], dstSample)
							gotRec, gotIrr := CollectBothSampledG(w, gotGen, gotRng, q[0], q[1], dstSample)
							if !reflect.DeepEqual(collectedCases(gotRec), collectedCases(wantRec)) {
								t.Fatalf("%s: recoverable cases differ from the full enumeration's", label)
							}
							if !reflect.DeepEqual(collectedCases(gotIrr), collectedCases(wantIrr)) {
								t.Fatalf("%s: irrecoverable cases differ from the full enumeration's", label)
							}
							if gotGen.draws != wantGen.draws {
								t.Fatalf("%s: drew %d scenarios, full enumeration %d", label, gotGen.draws, wantGen.draws)
							}
							if got, want := gotRng.Int63(), wantRng.Int63(); got != want {
								t.Fatalf("%s: rng left at %d, full enumeration at %d", label, got, want)
							}
							if len(gotRec)+len(gotIrr) == 0 {
								t.Fatalf("%s: no cases collected; the comparison is vacuous", label)
							}
						}
					}
				}
			}
		})
	}
}
