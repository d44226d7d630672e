package invariant

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/spt"
)

// TestCheckCaseGoalEngines runs the full invariant oracle over worlds
// built with the goal-directed phase-2 engine: every paper-level
// guarantee (Theorem 2 optimality, stretch-1, SPCalcs accounting, walk
// well-formedness) must hold for ALT outputs exactly as it does
// for the default full-tree engine — the oracle runs unchanged.
func TestCheckCaseGoalEngines(t *testing.T) {
	scenarios := 4
	maxCases := 250
	if testing.Short() {
		scenarios, maxCases = 2, 80
	}
	names := []string{"AS1239", "AS7018"}
	for _, eng := range []spt.Engine{spt.EngineALT} {
		for _, name := range names {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				t.Parallel()
				w, err := sim.NewWorldPhase2(name, 1, eng)
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
				t.Logf("%d cases clean under %s", checked, eng)
			})
		}
	}
}
