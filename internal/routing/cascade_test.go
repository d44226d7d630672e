package routing

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/topology"
)

// TestCascadeChainedRecompute drives the delete-only incremental
// recomputation down a cascading failure schedule: each step of a
// cascade strictly grows the failure set, so chaining
// RecomputeTablesUnder from step to step is valid and must stay
// bit-identical to a cold build at every step. This is the convergence
// sequence an operator would actually route through during a
// multi-stage disaster.
func TestCascadeChainedRecompute(t *testing.T) {
	for _, as := range []string{"AS1239", "AS7018"} {
		as := as
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			topo := topology.GenerateAS(as, 1)
			gen := failure.CascadeGen{Steps: 4, Min: 100, Max: 250}
			rng := rand.New(rand.NewSource(int64(len(as)) + 91))
			for trial := 0; trial < 3; trial++ {
				sc := gen.Generate(topo, rng)
				tables := ComputeTables(topo)
				for step := 0; step < sc.Steps(); step++ {
					cur := sc.At(step)
					tables = RecomputeTablesUnder(topo, tables, cur)
					cold := ComputeTablesLazy(topo, cur)
					requireTablesIdentical(t, as, "cascade-step", tables, cold)
				}
			}
		})
	}
}

// TestTransientRecomputeFromClean: transient schedules repair, so
// chaining past the peak is not delete-only — but every step is
// delete-only relative to the clean tables, and the recompute must
// match the cold build from that seed.
func TestTransientRecomputeFromClean(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	clean := ComputeTables(topo)
	gen := failure.TransientGen{Steps: 3, Min: 100, Max: 250}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		sc := gen.Generate(topo, rng)
		for step := 0; step < sc.Steps(); step++ {
			cur := sc.At(step)
			inc := RecomputeTablesUnder(topo, clean, cur)
			cold := ComputeTablesLazy(topo, cur)
			requireTablesIdentical(t, "AS1239", "transient-step", inc, cold)
		}
		if sc.At(sc.Steps() - 1).HasFailures() {
			t.Fatal("transient schedule must end all-up")
		}
	}
}
