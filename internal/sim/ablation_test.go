package sim

import "testing"

func TestAblateTermination(t *testing.T) {
	w, err := NewWorld("AS1239", 11)
	if err != nil {
		t.Fatal(err)
	}
	res := AblateTermination(w, 11, 300)
	if res.VerifiedOptimal <= 0 || res.PaperOptimal <= 0 {
		t.Fatalf("degenerate rates: %+v", res)
	}
	// The verification exists to buy optimal-recovery points at the
	// price of longer walks.
	if res.VerifiedOptimal < res.PaperOptimal {
		t.Errorf("verified termination (%.1f%%) must not be worse than the paper rule (%.1f%%)",
			res.VerifiedOptimal, res.PaperOptimal)
	}
	if res.VerifiedP90Ms <= 0 || res.PaperP90Ms <= 0 {
		t.Errorf("durations missing: %+v", res)
	}
	t.Logf("verified %.1f%% @ p90 %.0f ms | paper rule %.1f%% @ p90 %.0f ms",
		res.VerifiedOptimal, res.VerifiedP90Ms, res.PaperOptimal, res.PaperP90Ms)
}

// An unknown topology fails where the termination ablation's world is
// built.
func TestAblateTerminationUnknownAS(t *testing.T) {
	if _, err := NewWorld("ASnope", 1); err == nil {
		t.Error("unknown topology must error for the default world")
	}
}

func TestAblateConstraints(t *testing.T) {
	// 600 cases: under the paper's termination rule the walk-length gap
	// is real but modest, and smaller workloads leave it inside the
	// noise of which equal-cost converged paths the case generator
	// happens to draw.
	w, err := NewWorld("AS1239", 11)
	if err != nil {
		t.Fatal(err)
	}
	res := AblateConstraints(w, 11, 600)
	// With the exploration machinery (directed-edge freshness +
	// escapes), the constraints' measurable benefit is walk length:
	// the unconstrained walk wanders far longer for comparable
	// coverage, in both termination regimes. (The literal Fig. 4
	// short-circuit — unconstrained collecting almost nothing — is
	// reproduced on the paper's worked example by
	// core.TestFig4UnconstrainedDisorder.)
	for _, pair := range []struct {
		name     string
		con, unc ConstraintCell
	}{
		{"verified", res.VerifiedConstrained, res.VerifiedUnconstrained},
		{"paper", res.PaperConstrained, res.PaperUnconstrained},
	} {
		if pair.con.Coverage < 50 || pair.unc.Coverage < 50 {
			t.Errorf("%s termination: coverages implausibly low: %+v", pair.name, pair)
		}
		if pair.unc.AvgWalkHops <= pair.con.AvgWalkHops {
			t.Errorf("%s termination: unconstrained exploration should cost more hops: %+v", pair.name, pair)
		}
	}
	t.Logf("verified: con %.1f%%@%.1f hops, unc %.1f%%@%.1f hops | paper: con %.1f%%@%.1f, unc %.1f%%@%.1f",
		res.VerifiedConstrained.Coverage, res.VerifiedConstrained.AvgWalkHops,
		res.VerifiedUnconstrained.Coverage, res.VerifiedUnconstrained.AvgWalkHops,
		res.PaperConstrained.Coverage, res.PaperConstrained.AvgWalkHops,
		res.PaperUnconstrained.Coverage, res.PaperUnconstrained.AvgWalkHops)
}

func TestAblateMRCConfigs(t *testing.T) {
	w, err := NewWorld("AS1239", 11)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := AblateMRCConfigs(w, 11, 300, []int{3, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	for _, p := range pts {
		if p.Recovery <= 0 || p.Recovery >= 100 {
			t.Errorf("k=%d: recovery %.1f%% out of the plausible band", p.K, p.Recovery)
		}
	}
	t.Logf("MRC config sweep: %+v", pts)
}

func TestAblateWeightedCosts(t *testing.T) {
	w, err := NewWorld("AS1239", 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AblateWeightedCosts(w, 11, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2 is cost-model independent: recovered implies optimal
	// under weighted asymmetric costs too.
	if res.Recovery != res.Optimal {
		t.Errorf("weighted costs: recovery %.2f%% != optimal %.2f%%", res.Recovery, res.Optimal)
	}
	if res.Recovery <= 0 {
		t.Error("no recoveries under weighted costs")
	}
	if res.FCPRecovery < 99.9 {
		t.Errorf("FCP must still always deliver: %.1f%%", res.FCPRecovery)
	}
	t.Logf("weighted costs: RTR %.1f%% (== optimal), FCP %.1f%%", res.Recovery, res.FCPRecovery)
}

func TestMultiArea(t *testing.T) {
	w, err := NewWorld("AS3320", 5)
	if err != nil {
		t.Fatal(err)
	}
	res := MultiArea(w, 9, 120)
	if res.Attempts != 120 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	if res.DeliveredPercent() < 60 {
		t.Errorf("two-area delivery = %.1f%%, implausibly low", res.DeliveredPercent())
	}
	if res.Delivered == 0 || res.AvgSPCalcs < 1 {
		t.Errorf("degenerate result: %+v", res)
	}
	t.Logf("two areas: delivered %.1f%%, %d chained, %.2f SP calcs/attempt",
		res.DeliveredPercent(), res.Chained, res.AvgSPCalcs)
}
