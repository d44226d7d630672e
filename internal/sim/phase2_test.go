package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/spt"
)

// phase2Engines is every selectable phase-2 route engine.
var phase2Engines = []spt.Engine{spt.EngineDijkstra, spt.EngineALT}

// TestPhase2EnginesIdenticalOutcomes is the harness-level differential
// test: the same workload run through worlds built under every phase-2
// engine must produce bit-identical per-case outcomes for all three
// protocols — not just equal rates, but equal walks, headers sizes,
// stretches, and SPCalcs, case by case.
func TestPhase2EnginesIdenticalOutcomes(t *testing.T) {
	const as = "AS1239"
	type run struct {
		eng      spt.Engine
		outcomes []Outcome
	}
	var runs []run
	for _, eng := range phase2Engines {
		w, err := NewWorldPhase2(as, 1, eng)
		if err != nil {
			t.Fatal(err)
		}
		if w.Phase2 != eng {
			t.Fatalf("world Phase2 = %v, want %v", w.Phase2, eng)
		}
		// Same collection seed on the same topology: every world sees
		// the identical case sequence.
		rng := rand.New(rand.NewSource(7))
		rec, irr := CollectBoth(w, rng, 80, 40)
		cases := append(append([]*Case(nil), rec...), irr...)
		runs = append(runs, run{eng, RunAll(w, cases)})
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if len(r.outcomes) != len(base.outcomes) {
			t.Fatalf("%v produced %d outcomes, %v produced %d",
				r.eng, len(r.outcomes), base.eng, len(base.outcomes))
		}
		for i, o := range r.outcomes {
			b := base.outcomes[i]
			if o.Err != nil || b.Err != nil {
				t.Fatalf("case %d: err %v (%v) vs %v (%v)", i, o.Err, r.eng, b.Err, base.eng)
			}
			if !reflect.DeepEqual(o.RTR, b.RTR) {
				t.Errorf("case %d: RTR outcome differs between %v and %v:\n%+v\nvs\n%+v",
					i, base.eng, r.eng, b.RTR, o.RTR)
			}
			if !reflect.DeepEqual(o.FCP, b.FCP) {
				t.Errorf("case %d: FCP outcome differs between %v and %v:\n%+v\nvs\n%+v",
					i, base.eng, r.eng, b.FCP, o.FCP)
			}
			if !reflect.DeepEqual(o.MRC, b.MRC) {
				t.Errorf("case %d: MRC outcome differs between %v and %v:\n%+v\nvs\n%+v",
					i, base.eng, r.eng, b.MRC, o.MRC)
			}
			if t.Failed() {
				t.Fatalf("stopping at first differing case %d", i)
			}
		}
	}
}

// TestPhase2SettledReduction pins the acceptance bar of the
// goal-directed engine: on AS7018 single-pair queries, ALT must never
// settle more nodes than the full-tree engine, and at most half as
// many averaged over frozen pairs.
func TestPhase2SettledReduction(t *testing.T) {
	const as = "AS7018"
	worlds := map[spt.Engine]*World{}
	for _, eng := range phase2Engines {
		w, err := NewWorldPhase2(as, 1, eng)
		if err != nil {
			t.Fatal(err)
		}
		worlds[eng] = w
	}
	var dijTotal, altTotal int
	const pairs = 10
	for s := int64(0); s < pairs; s++ {
		settled := map[spt.Engine]int{}
		var frozen *SinglePair
		for _, eng := range phase2Engines {
			p, err := NewSinglePair(worlds[eng], 100+s)
			if err != nil {
				t.Fatal(err)
			}
			if frozen == nil {
				frozen = p
			} else if p.C.Initiator != frozen.C.Initiator || p.C.Dst != frozen.C.Dst {
				t.Fatalf("pair seed %d froze different cases across engines", s)
			}
			settled[eng] = p.SettledNodes()
		}
		if settled[spt.EngineALT] > settled[spt.EngineDijkstra] {
			t.Errorf("pair %d: alt settled %d > dijkstra %d",
				s, settled[spt.EngineALT], settled[spt.EngineDijkstra])
		}
		dijTotal += settled[spt.EngineDijkstra]
		altTotal += settled[spt.EngineALT]
	}
	t.Logf("%s mean settled over %d pairs: dijkstra %.1f, alt %.1f",
		as, pairs, float64(dijTotal)/pairs, float64(altTotal)/pairs)
	if 2*altTotal > dijTotal {
		t.Errorf("ALT settled %d nodes total vs dijkstra %d — want >= 2x reduction", altTotal, dijTotal)
	}
}

// TestSinglePairAcrossEngines checks the frozen-pair harness itself:
// the case is recoverable, every protocol runs clean, and the per-op
// results are identical across engines (the property that makes the
// single-pair benchmark a fair comparison).
func TestSinglePairAcrossEngines(t *testing.T) {
	const as = "AS1239"
	type triple struct {
		rtr RTRResult
		fcp FCPResult
		mrc MRCResult
	}
	var base *triple
	for _, eng := range phase2Engines {
		w, err := NewWorldPhase2(as, 1, eng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSinglePair(w, 13)
		if err != nil {
			t.Fatal(err)
		}
		if !p.C.Recoverable {
			t.Fatalf("%v: frozen case not recoverable", eng)
		}
		var tr triple
		if tr.rtr, err = p.RTR(); err != nil {
			t.Fatalf("%v: RTR: %v", eng, err)
		}
		if tr.fcp, err = p.FCP(); err != nil {
			t.Fatalf("%v: FCP: %v", eng, err)
		}
		if tr.mrc, err = p.MRC(); err != nil {
			t.Fatalf("%v: MRC: %v", eng, err)
		}
		if !tr.rtr.Recovered {
			t.Errorf("%v: RTR did not recover the recoverable frozen case", eng)
		}
		if base == nil {
			base = &tr
			continue
		}
		if !reflect.DeepEqual(tr, *base) {
			t.Errorf("%v: single-pair results differ from %v:\n%+v\nvs\n%+v",
				eng, phase2Engines[0], *base, tr)
		}
	}
}
