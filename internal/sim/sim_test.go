package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/spt"
	"repro/internal/topology"
)

// smallDataset builds a modest dataset once per test binary run.
func smallDataset(t *testing.T, as string) *Dataset {
	t.Helper()
	w, err := NewWorld(as, 11)
	if err != nil {
		t.Fatal(err)
	}
	rec, irr := CollectBothG(w, failure.Default(), rand.New(rand.NewSource(42)), 500, 500)
	return &Dataset{World: w, Rec: Records(RunAll(w, rec)), Irr: Records(RunAll(w, irr))}
}

func TestNewWorldUnknown(t *testing.T) {
	if _, err := NewWorld("ASnope", 1); err == nil {
		t.Error("unknown topology must error")
	}
	// The single-engine form kept for the benchmark harness refuses any
	// engine but EngineDijkstra.
	if _, err := NewWorldPhase2("AS1239", 1, spt.EngineDijkstra+1); err == nil {
		t.Error("a second phase-2 engine must error")
	}
}

func TestCasesFromScenarioPaperExample(t *testing.T) {
	w, err := NewWorldFrom(topology.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	sc := failure.NewScenario(w.Topo, topology.PaperFailureArea())
	rec, irr := CasesFromScenario(w, sc)

	// The narrative case must be present: initiator v6, destination
	// v17, trigger e6-11, recoverable.
	found := false
	for _, c := range rec {
		if c.Initiator == topology.PaperNode(6) && c.Dst == topology.PaperNode(17) {
			found = true
			if c.Trigger != topology.PaperLink(w.Topo, 6, 11) {
				t.Errorf("trigger = %v, want e6-11", w.Topo.G.Link(c.Trigger))
			}
			if c.NextHop != topology.PaperNode(11) {
				t.Errorf("next hop = v%d, want v11", c.NextHop+1)
			}
		}
	}
	if !found {
		t.Error("narrative case (v6 -> v17) missing from recoverable set")
	}
	// All irrecoverable destinations here are v10 (the only dead or
	// partitioned node in this fixture).
	for _, c := range irr {
		if c.Dst != topology.PaperNode(10) {
			t.Errorf("unexpected irrecoverable destination v%d", c.Dst+1)
		}
	}
	// Dedup: no (initiator, dst) repeats.
	seen := map[[2]int]bool{}
	for _, c := range append(append([]*Case(nil), rec...), irr...) {
		k := [2]int{int(c.Initiator), int(c.Dst)}
		if seen[k] {
			t.Errorf("duplicate case (%d, %d)", c.Initiator, c.Dst)
		}
		seen[k] = true
	}
}

func TestCollectCasesCounts(t *testing.T) {
	w, err := NewWorld("AS1239", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rec, _ := CollectBothG(w, failure.Default(), rng, 120, 0)
	if len(rec) != 120 {
		t.Errorf("got %d recoverable cases, want 120", len(rec))
	}
	for _, c := range rec {
		if !c.Recoverable {
			t.Fatal("recoverable set contains irrecoverable case")
		}
	}
	_, irr := CollectBothG(w, failure.Default(), rng, 0, 80)
	if len(irr) != 80 {
		t.Errorf("got %d irrecoverable cases, want 80", len(irr))
	}
	for _, c := range irr {
		if c.Recoverable {
			t.Fatal("irrecoverable set contains recoverable case")
		}
	}
}

func TestTable3Shape(t *testing.T) {
	d := smallDataset(t, "AS1239")
	row := d.Table3()

	// The paper's comparative claims, asserted as shapes.
	if row.FCPRecovery < 99.9 {
		t.Errorf("FCP recovery = %.1f%%, want 100%%", row.FCPRecovery)
	}
	if row.RTRRecovery != row.RTROptimal {
		t.Errorf("RTR recovery (%.2f) must equal RTR optimal (%.2f) — Theorem 2", row.RTRRecovery, row.RTROptimal)
	}
	if row.RTROptimal <= row.FCPOptimal {
		t.Errorf("RTR optimal (%.1f%%) must beat FCP optimal (%.1f%%)", row.RTROptimal, row.FCPOptimal)
	}
	if row.MRCRecovery >= row.RTRRecovery {
		t.Errorf("MRC recovery (%.1f%%) must be far below RTR (%.1f%%)", row.MRCRecovery, row.RTRRecovery)
	}
	if row.RTRMaxStretch != 1 {
		t.Errorf("RTR max stretch = %v, want exactly 1", row.RTRMaxStretch)
	}
	if row.FCPMaxStretch < 1 {
		t.Errorf("FCP max stretch = %v, want >= 1", row.FCPMaxStretch)
	}
	if row.RTRMaxCalcs != 1 {
		t.Errorf("RTR max SP calcs = %d, want 1", row.RTRMaxCalcs)
	}
	if row.FCPMaxCalcs <= 1 {
		t.Errorf("FCP max SP calcs = %d, want > 1", row.FCPMaxCalcs)
	}
}

func TestFig7Shape(t *testing.T) {
	d := smallDataset(t, "AS1239")
	cdf := d.Fig7()
	if cdf.N() == 0 {
		t.Fatal("no duration samples")
	}
	if cdf.Min() < 1.8-1e-9 {
		t.Errorf("minimum duration %.1f ms below one hop", cdf.Min())
	}
	// Durations are multiples of 1.8 ms.
	if q := cdf.Quantile(0.5); q <= 0 {
		t.Errorf("median duration = %v", q)
	}
}

func TestFig8Shape(t *testing.T) {
	d := smallDataset(t, "AS1239")
	rtr, fcp := d.Fig8()
	if rtr.N() == 0 || fcp.N() == 0 {
		t.Fatal("empty stretch CDFs")
	}
	if rtr.Max() != 1 {
		t.Errorf("RTR stretch max = %v, want 1", rtr.Max())
	}
	if fcp.Max() <= 1 {
		t.Errorf("FCP stretch max = %v, want > 1", fcp.Max())
	}
	// FCP achieves stretch 1 in most but not all cases.
	if at1 := fcp.At(1); at1 >= 1 || at1 < 0.5 {
		t.Errorf("FCP fraction at stretch 1 = %v, want in [0.5, 1)", at1)
	}
}

func TestFig9Shape(t *testing.T) {
	d := smallDataset(t, "AS1239")
	rtr, fcp := d.Fig9()
	if rtr.Max() != 1 {
		t.Errorf("RTR SP calcs max = %v, want 1", rtr.Max())
	}
	if fcp.Max() <= 1 {
		t.Errorf("FCP SP calcs max = %v, want > 1", fcp.Max())
	}
	if fcp.Mean() <= rtr.Mean() {
		t.Errorf("FCP mean calcs (%v) must exceed RTR (%v)", fcp.Mean(), rtr.Mean())
	}
}

func TestFig10Shape(t *testing.T) {
	d := smallDataset(t, "AS1239")
	pts := d.Fig10(time.Second, 10*time.Millisecond)
	if len(pts) == 0 {
		t.Fatal("no time points")
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.T != 0 || last.T < 900*time.Millisecond {
		t.Errorf("time range wrong: %v .. %v", first.T, last.T)
	}
	// Paper shape: RTR's overhead peaks during phase 1 (within the
	// first ~150 ms), then decays to a steady state below FCP's.
	peak, peakT := 0.0, time.Duration(0)
	for _, p := range pts {
		if p.RTRBytes > peak {
			peak, peakT = p.RTRBytes, p.T
		}
	}
	if peakT > 150*time.Millisecond {
		t.Errorf("RTR peak at %v, want within phase 1 (~150 ms)", peakT)
	}
	if last.RTRBytes >= peak {
		t.Errorf("RTR bytes must decay from the phase-1 peak: peak %v, steady %v", peak, last.RTRBytes)
	}
	if last.RTRBytes >= last.FCPBytes {
		t.Errorf("steady-state RTR bytes (%v) must be below FCP (%v)", last.RTRBytes, last.FCPBytes)
	}
}

func TestFig11Shape(t *testing.T) {
	w, err := NewWorld("AS1239", 3)
	if err != nil {
		t.Fatal(err)
	}
	// 60 random areas per radius, counted as a KindFig11 sweep shard
	// counts them.
	rng := rand.New(rand.NewSource(7))
	var pts []Fig11Point
	for _, radius := range []float64{20, 160, 300} {
		failed, irr := 0, 0
		for i := 0; i < 60; i++ {
			f, ir := CountFailedPaths(w, failure.NewScenario(w.Topo, failure.RandomArea(rng, radius, radius)))
			failed += f
			irr += ir
		}
		pts = append(pts, NewFig11Point(radius, failed, irr))
	}
	// Even tiny areas strand >20%% of failed paths; big areas more
	// (the paper's Fig. 11 headline).
	if pts[0].Percent < 5 {
		t.Errorf("radius 20: %.1f%% irrecoverable, expected a substantial fraction", pts[0].Percent)
	}
	if pts[2].Percent <= pts[0].Percent {
		t.Errorf("irrecoverable %% must grow with radius: %v", pts)
	}
	if pts[2].Percent < 40 {
		t.Errorf("radius 300: %.1f%%, expected >= 40%%", pts[2].Percent)
	}
}

func TestFig12Table4Shape(t *testing.T) {
	d := smallDataset(t, "AS1239")
	rtr, fcp := d.Fig12()
	if rtr.Max() != 1 {
		t.Errorf("RTR wasted computation must be exactly 1, max = %v", rtr.Max())
	}
	if fcp.Mean() <= 1 {
		t.Errorf("FCP wasted computation mean = %v, want > 1", fcp.Mean())
	}
	row := d.Table4()
	if row.RTRAvgComp != 1 || row.RTRMaxComp != 1 {
		t.Errorf("Table IV RTR computation = %v/%v, want 1/1", row.RTRAvgComp, row.RTRMaxComp)
	}
	if row.FCPAvgComp <= row.RTRAvgComp {
		t.Errorf("FCP avg wasted computation (%v) must exceed RTR (%v)", row.FCPAvgComp, row.RTRAvgComp)
	}
	if row.FCPAvgTrans <= row.RTRAvgTrans {
		t.Errorf("FCP avg wasted transmission (%v) must exceed RTR (%v)", row.FCPAvgTrans, row.RTRAvgTrans)
	}
}

func TestFig13Shape(t *testing.T) {
	d := smallDataset(t, "AS1239")
	rtr, fcp := d.Fig13()
	if rtr.N() == 0 || fcp.N() == 0 {
		t.Fatal("empty wasted-transmission CDFs")
	}
	// RTR identifies many irrecoverable destinations immediately
	// (wasted transmission 0); FCP always wanders first.
	if rtr.At(0) <= fcp.At(0) {
		t.Errorf("RTR mass at zero (%v) must exceed FCP's (%v)", rtr.At(0), fcp.At(0))
	}
	if fcp.Mean() <= rtr.Mean() {
		t.Errorf("FCP mean wasted transmission (%v) must exceed RTR (%v)", fcp.Mean(), rtr.Mean())
	}
}

func TestCountFailedPathsConsistency(t *testing.T) {
	w, err := NewWorldFrom(topology.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	sc := failure.NewScenario(w.Topo, topology.PaperFailureArea())
	failed, irr := CountFailedPaths(w, sc)
	if failed == 0 {
		t.Fatal("the fixture failure breaks paths")
	}
	if irr > failed {
		t.Fatal("irrecoverable cannot exceed failed")
	}
	// Only v10 is dead and nothing is partitioned, so irrecoverable
	// paths are exactly the failed paths toward v10 from live sources:
	// 17 sources.
	if irr != 17 {
		t.Errorf("irrecoverable paths = %d, want 17 (all live sources toward v10)", irr)
	}
}

func TestBytesAt(t *testing.T) {
	d := smallDataset(t, "AS1239")
	for _, r := range d.Rec[:10] {
		if r.RTR.NoLiveNeighbor {
			continue
		}
		// At t=0 the packet is on its first phase-1 hop.
		if len(r.RTR.Phase1Bytes) > 0 {
			want := r.RTR.Phase1Bytes[0]
			if got := RecordBytesAt(r.RTR.Phase1Bytes, r.RTR.RouteBytes, 0); got != want {
				t.Errorf("RecordBytesAt(0) = %d, want %d", got, want)
			}
		}
		// Far beyond the walk: steady state.
		if got := RecordBytesAt(r.RTR.Phase1Bytes, r.RTR.RouteBytes, time.Hour); got != r.RTR.RouteBytes {
			t.Errorf("steady RecordBytesAt = %d, want %d", got, r.RTR.RouteBytes)
		}
	}
	if RecordBytesAt(d.Rec[0].RTR.Phase1Bytes, 5, -time.Second) != 0 {
		t.Error("negative time must be 0 bytes")
	}
}

func TestDefaultRadii(t *testing.T) {
	r := DefaultRadii()
	if len(r) != 15 || r[0] != 20 || r[len(r)-1] != 300 {
		t.Errorf("radii = %v", r)
	}
}

func TestOutcomesHaveNoErrors(t *testing.T) {
	d := smallDataset(t, "AS1239")
	for _, set := range [][]CaseRecord{d.Rec, d.Irr} {
		for _, r := range set {
			if r.Err != "" {
				t.Fatalf("outcome error: %v", r.Err)
			}
		}
	}
}
