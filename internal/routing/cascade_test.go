package routing

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/topology"
)

// randomDisks draws k failure disks with radius in [100, 250].
func randomDisks(rng *rand.Rand, k int) []geom.Disk {
	disks := make([]geom.Disk, k)
	for i := range disks {
		disks[i] = failure.RandomArea(rng, 100, 250)
	}
	return disks
}

// TestCascadeChainedRecompute drives the delete-only incremental
// recomputation down a growing failure sequence: disks strike one after
// another and nothing repairs, so each step strictly grows the failure
// set, chaining RecomputeTablesUnder from step to step is valid, and it
// must stay bit-identical to a cold build at every step. This is the
// convergence sequence an operator would actually route through during
// a multi-stage disaster.
func TestCascadeChainedRecompute(t *testing.T) {
	for _, as := range []string{"AS1239", "AS7018"} {
		as := as
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			topo := topology.GenerateAS(as, 1)
			rng := rand.New(rand.NewSource(int64(len(as)) + 91))
			for trial := 0; trial < 3; trial++ {
				disks := randomDisks(rng, 4)
				tables := ComputeTables(topo)
				for i := range disks {
					cur := failure.NewScenario(topo, disks[:i+1]...)
					tables = RecomputeTablesUnder(topo, tables, cur)
					cold := ComputeTablesLazy(topo, cur)
					requireTablesIdentical(t, as, "cascade-step", tables, cold)
				}
			}
		})
	}
}

// TestTransientRecomputeFromClean: disks strike one after another and
// then repair oldest-first until everything is back up. Chaining past
// the peak is not delete-only, but every step is delete-only relative
// to the clean tables, and the recompute must match the cold build from
// that seed.
func TestTransientRecomputeFromClean(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 1)
	clean := ComputeTables(topo)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		disks := randomDisks(rng, 3)
		var steps []*failure.Scenario
		for i := range disks { // growth: disks[0..i]
			steps = append(steps, failure.NewScenario(topo, disks[:i+1]...))
		}
		for j := 1; j <= len(disks); j++ { // repair: disks[j..], ending empty
			steps = append(steps, failure.NewScenario(topo, disks[j:]...))
		}
		for _, cur := range steps {
			inc := RecomputeTablesUnder(topo, clean, cur)
			cold := ComputeTablesLazy(topo, cur)
			requireTablesIdentical(t, "AS1239", "transient-step", inc, cold)
		}
	}
}
