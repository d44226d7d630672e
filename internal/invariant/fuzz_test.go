package invariant

import (
	"math"
	"testing"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/topology"
)

// FuzzCheckCase drives the whole invariant suite from fuzzed failure
// geometry: any disk (or pair of disks) placed anywhere on the plane
// must yield cases on which the answers of all three protocols, run as
// RunAllN runs them on shared sessions, satisfy every invariant. The corpus seeds cover the paper's radius range, border
// areas (which cannot be enclosed and exercise walk truncation), and
// degenerate dots.
func FuzzCheckCase(f *testing.F) {
	f.Add(400.0, 400.0, 200.0, 1500.0, 1500.0, 0.0)
	f.Add(0.0, 0.0, 300.0, 0.0, 0.0, 0.0)              // border corner
	f.Add(1000.0, 1000.0, 300.0, 400.0, 1600.0, 250.0) // two areas
	f.Add(1999.0, 37.0, 100.0, 0.0, 0.0, 0.0)
	f.Add(700.0, 1200.0, 1.0, 0.0, 0.0, 0.0) // near-degenerate dot

	w, err := sim.NewWorld("AS1239", 1)
	if err != nil {
		f.Fatal(err)
	}
	k := New(w)

	clamp := func(v, lo, hi float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return lo
		}
		v = math.Mod(math.Abs(v), hi-lo)
		return lo + v
	}
	f.Fuzz(func(t *testing.T, x1, y1, r1, x2, y2, r2 float64) {
		areas := []geom.Disk{{
			Center: geom.Point{X: clamp(x1, 0, topology.Width), Y: clamp(y1, 0, topology.Height)},
			Radius: clamp(r1, 1, 2*failure.MaxRadius),
		}}
		if r2 > 0 {
			areas = append(areas, geom.Disk{
				Center: geom.Point{X: clamp(x2, 0, topology.Width), Y: clamp(y2, 0, topology.Height)},
				Radius: clamp(r2, 1, 2*failure.MaxRadius),
			})
		}
		sc := failure.NewScenario(w.Topo, areas...)
		rec, irr := sim.CasesFromScenario(w, sc)
		cases := append(rec, irr...)
		const cap = 40 // bound per-input work; the fuzzer varies the geometry
		if len(cases) > cap {
			cases = cases[:cap]
		}
		if err := checkAll(k, cases); err != nil {
			t.Fatal(err)
		}
	})
}
