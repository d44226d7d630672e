package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/topology"
)

// caseKey projects a Case onto its identifying scalars (the pointers
// differ between enumerations of the same scenario).
type caseKey struct {
	Initiator, Dst, NextHop uint32
	Trigger                 uint32
	Recoverable             bool
}

func caseKeys(cs []*Case) []caseKey {
	out := make([]caseKey, len(cs))
	for i, c := range cs {
		out[i] = caseKey{uint32(c.Initiator), uint32(c.Dst), uint32(c.NextHop), uint32(c.Trigger), c.Recoverable}
	}
	return out
}

// TestScaleCasesMatchFull: with a full destination sample the
// enumerator draws nothing from the rng and produces exactly the n^2
// reference scan, in the same order.
func TestScaleCasesMatchFull(t *testing.T) {
	w, err := NewWorld("AS1239", 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	g := failure.Default()
	for draw := 0; draw < 25; draw++ {
		sc := g.Generate(w.Topo, rng)
		wantRec, wantIrr := quadraticCases(w, sc)
		gotRec, gotIrr := ScaleCasesFromScenario(w, sc, nil, 0) // nil: a draw would panic
		if len(wantRec) > 0 && !reflect.DeepEqual(caseKeys(gotRec), wantRec) {
			t.Fatalf("draw %d: recoverable cases differ from the n^2 scan", draw)
		}
		if len(wantIrr) > 0 && !reflect.DeepEqual(caseKeys(gotIrr), wantIrr) {
			t.Fatalf("draw %d: irrecoverable cases differ from the n^2 scan", draw)
		}
		if len(gotRec) != len(wantRec) || len(gotIrr) != len(wantIrr) {
			t.Fatalf("draw %d: case counts differ from the n^2 scan", draw)
		}
	}
}

// TestScaleCasesSampledSubset: a sampled enumeration is a subset of
// the full one and a pure function of the rng stream.
func TestScaleCasesSampledSubset(t *testing.T) {
	w, err := NewWorld("AS1239", 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := failure.Default().Generate(w.Topo, rand.New(rand.NewSource(3)))
	fullRec, fullIrr := CasesFromScenario(w, sc)
	full := map[caseKey]bool{}
	for _, k := range caseKeys(append(append([]*Case(nil), fullRec...), fullIrr...)) {
		full[k] = true
	}

	rec1, irr1 := ScaleCasesFromScenario(w, sc, rand.New(rand.NewSource(5)), 10)
	rec2, irr2 := ScaleCasesFromScenario(w, sc, rand.New(rand.NewSource(5)), 10)
	if !reflect.DeepEqual(caseKeys(rec1), caseKeys(rec2)) || !reflect.DeepEqual(caseKeys(irr1), caseKeys(irr2)) {
		t.Fatal("sampled enumeration not deterministic for a fixed rng stream")
	}
	for _, k := range caseKeys(append(append([]*Case(nil), rec1...), irr1...)) {
		if !full[k] {
			t.Fatalf("sampled case %+v not present in full enumeration", k)
		}
	}
}

// TestScaleWorldConfig: a scale-mode world carries no MRC, reports
// that one concession through the log hook, and its RTR and FCP
// outcomes are identical to the full world's.
func TestScaleWorldConfig(t *testing.T) {
	topo := topology.PaperExample()
	var logs []string
	ws, err := NewWorldFromConfig(topo, WorldConfig{
		Scale: true,
		Log:   func(msg string) { logs = append(logs, msg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.HasMRC() {
		t.Error("scale world must not carry an MRC engine")
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "MRC disabled") {
		t.Errorf("scale concession not logged, got %q", logs)
	}

	wf, err := NewWorldFrom(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc := failure.NewScenario(wf.Topo, topology.PaperFailureArea())
	fullRec, fullIrr := CasesFromScenario(wf, sc)
	fullOut := RunAll(wf, append(append([]*Case(nil), fullRec...), fullIrr...))

	scRec, scIrr := CasesFromScenario(ws, sc)
	scaleOut := RunAll(ws, append(append([]*Case(nil), scRec...), scIrr...))

	if len(scaleOut) != len(fullOut) {
		t.Fatalf("scale world produced %d outcomes, full %d", len(scaleOut), len(fullOut))
	}
	for i := range scaleOut {
		so, fo := scaleOut[i].Record(), fullOut[i].Record()
		if !so.MRC.Skipped {
			t.Fatalf("case %d: MRC not marked skipped on scale world", i)
		}
		so.MRC = fo.MRC // the only permitted difference
		if !reflect.DeepEqual(so, fo) {
			t.Fatalf("case %d: RTR/FCP outcomes differ between scale and full world:\n scale %+v\n full  %+v", i, so, fo)
		}
	}
}
