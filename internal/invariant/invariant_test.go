package invariant

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/topology"
)

// worldCache shares one World per topology across the whole test
// binary — world construction (MRC's k*n trees in particular) is the
// expensive part, the checks themselves are cheap.
var (
	worldMu    sync.Mutex
	worldCache = map[string]*sim.World{}
)

func worldFor(t testing.TB, name string) *sim.World {
	worldMu.Lock()
	defer worldMu.Unlock()
	if w, ok := worldCache[name]; ok {
		return w
	}
	w, err := sim.NewWorld(name, 1)
	if err != nil {
		t.Fatalf("NewWorld(%s): %v", name, err)
	}
	worldCache[name] = w
	return w
}

// TestCheckCaseAllTopologies is the property harness: every bundled
// Table II topology, random failure circles, every deduplicated case —
// recoverable and irrecoverable — must pass every invariant.
func TestCheckCaseAllTopologies(t *testing.T) {
	scenarios := 6
	maxCases := 400
	if testing.Short() {
		scenarios, maxCases = 2, 100
	}
	for _, name := range topology.ASNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := worldFor(t, name)
			k := New(w)
			rng := rand.New(rand.NewSource(7))
			checked := 0
			for s := 0; s < scenarios && checked < maxCases; s++ {
				sc := failure.RandomScenario(w.Topo, rng)
				rec, irr := sim.CasesFromScenario(w, sc)
				for _, c := range append(rec, irr...) {
					if checked >= maxCases {
						break
					}
					checked++
					if vs := k.CheckCase(c); len(vs) > 0 {
						t.Fatalf("%v (first of %d violations)", vs[0], len(vs))
					}
				}
			}
			if checked == 0 {
				t.Fatal("no cases generated")
			}
			t.Logf("%d cases clean", checked)
		})
	}
}

// TestCheckCaseGoalEngines runs the full invariant oracle over worlds
// built through sim.NewWorldPhase2, the engine-selecting constructor
// the benchmark harness calls. Phase 2 has one engine, EngineDijkstra,
// so every paper-level guarantee (Theorem 2 optimality, stretch-1,
// SPCalcs accounting, walk well-formedness) must hold for those worlds
// exactly as for NewWorld's.
func TestCheckCaseGoalEngines(t *testing.T) {
	scenarios := 4
	maxCases := 250
	if testing.Short() {
		scenarios, maxCases = 2, 80
	}
	for _, name := range []string{"AS1239", "AS7018"} {
		t.Run(name+"/dijkstra", func(t *testing.T) {
			t.Parallel()
			w, err := sim.NewWorldPhase2(name, 1, spt.EngineDijkstra)
			if err != nil {
				t.Fatal(err)
			}
			k := New(w)
			rng := rand.New(rand.NewSource(7))
			checked := 0
			for s := 0; s < scenarios && checked < maxCases; s++ {
				sc := failure.RandomScenario(w.Topo, rng)
				rec, irr := sim.CasesFromScenario(w, sc)
				for _, c := range append(rec, irr...) {
					if checked >= maxCases {
						break
					}
					checked++
					if vs := k.CheckCase(c); len(vs) > 0 {
						t.Fatalf("%v (first of %d violations)", vs[0], len(vs))
					}
				}
			}
			if checked == 0 {
				t.Fatal("no cases generated")
			}
			t.Logf("%d cases clean", checked)
		})
	}
}

// TestCheckLossConservation runs the real loss experiment and checks
// packet accounting conserves, then proves each loss check fires on a
// perturbed result.
func TestCheckLossConservation(t *testing.T) {
	w := worldFor(t, "AS1239")
	cfg := sim.DefaultLossConfig()
	cfg.Scenarios = 5
	res := sim.PacketLoss(w, cfg)
	if res.Offered <= 0 {
		t.Fatalf("loss experiment offered no traffic: %+v", res)
	}
	if vs := CheckLoss(res); len(vs) > 0 {
		t.Fatalf("real loss result violates conservation: %v", vs[0])
	}

	perturb := []struct {
		check  string
		mutate func(r *sim.LossResult)
	}{
		{"loss/conservation-norec", func(r *sim.LossResult) { r.DroppedNoRecovery += 123 }},
		{"loss/conservation-rtr", func(r *sim.LossResult) { r.DeliveredWithRTR += 123 }},
		{"loss/saved-percent", func(r *sim.LossResult) { r.SavedPercent += 1 }},
	}
	for _, p := range perturb {
		mut := res
		p.mutate(&mut)
		if !hasCheck(CheckLoss(mut), p.check) {
			t.Errorf("perturbation did not fire %s: got %v", p.check, CheckLoss(mut))
		}
	}
}

func hasCheck(vs []Violation, id string) bool {
	for _, v := range vs {
		if v.Check == id {
			return true
		}
	}
	return false
}

// TestViolationError pins the repro string format the sweep surfaces on
// failure: it must name the topology, the case triple, and the failure
// instance in failure.ParseInstance's grammar, so any generator's
// scenarios minimize to an actionable repro.
func TestViolationError(t *testing.T) {
	w := worldFor(t, "AS1239")
	k := New(w)
	rng := rand.New(rand.NewSource(3))
	sc := failure.Default().Generate(w.Topo, rng)
	rec, irr := sim.CasesFromScenario(w, sc)
	cases := append(rec, irr...)
	if len(cases) == 0 {
		t.Skip("scenario produced no cases")
	}
	v := k.violation(cases[0], "test/check", "detail %d", 42)
	got := v.Error()
	for _, want := range []string{"invariant test/check", "detail 42", "topo=AS1239", "init=", "failure=disk(", "gen=disk"} {
		if !contains(got, want) {
			t.Errorf("violation error %q missing %q", got, want)
		}
	}
	// The failure= clause must round-trip through ParseInstance.
	desc := cases[0].Scenario.Desc()
	re, err := failure.ParseInstance(w.Topo, desc)
	if err != nil {
		t.Fatalf("repro descriptor %q does not parse: %v", desc, err)
	}
	if re.NumFailedLinks() != cases[0].Scenario.NumFailedLinks() ||
		re.NumFailedNodes() != cases[0].Scenario.NumFailedNodes() {
		t.Fatalf("repro descriptor %q rebuilt a different mask", desc)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestOracleGate: past MaxOracleNodes the quadratic oracle checks are
// skipped (with exactly one logged notice), the structural checks
// still run clean, and a negative gate forces the oracle back on.
func TestOracleGate(t *testing.T) {
	w := worldFor(t, "AS1239")
	rng := rand.New(rand.NewSource(11))
	sc := failure.Default().Generate(w.Topo, rng)
	rec, irr := sim.CasesFromScenario(w, sc)
	cases := append(rec, irr...)
	if len(cases) == 0 {
		t.Skip("scenario produced no cases")
	}

	var logs []string
	k := New(w)
	k.MaxOracleNodes = 1 // well below AS1239's 52 nodes
	k.Log = func(msg string) { logs = append(logs, msg) }
	if k.OracleEnabled() {
		t.Fatal("oracle must be gated off below the node count")
	}
	if err := k.CheckCases(cases); err != nil {
		t.Fatalf("structural checks failed with oracle gated: %v", err)
	}
	if len(logs) != 1 {
		t.Fatalf("oracle skip logged %d times, want exactly once: %v", len(logs), logs)
	}
	for _, want := range []string{"AS1239", "rtr/theorem2", "skipped"} {
		if !contains(logs[0], want) {
			t.Errorf("skip notice %q missing %q", logs[0], want)
		}
	}

	forced := New(w)
	forced.MaxOracleNodes = -1
	if !forced.OracleEnabled() {
		t.Fatal("negative gate must force the oracle on")
	}
	if err := forced.CheckCases(cases); err != nil {
		t.Fatalf("forced-oracle checks failed: %v", err)
	}
}
