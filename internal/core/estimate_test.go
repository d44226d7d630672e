package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestEstimateAreaPaperExample(t *testing.T) {
	_, _, _, sess, trigger := paperWorld(t)
	if _, err := sess.Collect(trigger); err != nil {
		t.Fatal(err)
	}
	est, ok := sess.EstimateArea()
	if !ok {
		t.Fatal("the session knows six failed links; estimation must succeed")
	}
	truth := topology.PaperFailureArea()
	// The estimate must land near the true area: center within one
	// true radius, size within a small factor.
	if est.Center.Dist(truth.Center) > truth.Radius {
		t.Errorf("estimated center %v too far from truth %v", est.Center, truth.Center)
	}
	if est.Radius > 3*truth.Radius {
		t.Errorf("estimated radius %.1f wildly exceeds truth %.1f", est.Radius, truth.Radius)
	}
	if est.Radius <= 0 {
		t.Error("six distinct cut links must give a positive-radius estimate")
	}
}

func TestEstimateAreaBeforeCollection(t *testing.T) {
	// Even before phase 1, the initiator knows its own unreachable
	// links and can produce a (coarse) estimate.
	_, _, _, sess, _ := paperWorld(t)
	est, ok := sess.EstimateArea()
	if !ok {
		t.Fatal("the initiator's own trigger link suffices for a degenerate estimate")
	}
	// Only one known link: the estimate collapses to its midpoint.
	if est.Radius != 0 {
		t.Errorf("single-link estimate must have zero radius, got %v", est.Radius)
	}
}

func TestEstimateAreaNoFailures(t *testing.T) {
	// A session at a node with no unreachable neighbors (possible only
	// by constructing it directly) has nothing to estimate.
	topo := topology.PaperExample()
	r := New(topo, nil)
	lv := routing.NewLocalView(topo, graph.Nothing)
	sess, err := r.NewSession(lv, topology.PaperNode(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.EstimateArea(); ok {
		t.Error("no known failures must yield ok=false")
	}
}

// TestEstimateAreaStatistical: over random scenarios, estimates whose
// sessions collected several links should usually land their center
// inside or near the true failure area.
func TestEstimateAreaStatistical(t *testing.T) {
	topo := topology.GenerateAS("AS209", 11)
	r := New(topo, nil)
	tables := routing.ComputeTables(topo)
	rng := rand.New(rand.NewSource(33))
	n := topo.G.NumNodes()

	total, near := 0, 0
	for total < 150 {
		area := failure.RandomArea(rng, failure.MinRadius, failure.MaxRadius)
		sc := failure.NewScenario(topo, area)
		lv := routing.NewLocalView(topo, sc)
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		outcome, initiator, _ := routing.TraceDefault(tables, lv, src, dst)
		if outcome != routing.DefaultBlocked {
			continue
		}
		sess, err := r.NewSession(lv, initiator)
		if err != nil {
			t.Fatal(err)
		}
		_, trigger, _ := tables.NextHop(initiator, dst)
		col, err := sess.Collect(trigger)
		if errors.Is(err, ErrNoLiveNeighbor) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(col.Header.FailedLinks) < 3 {
			continue // too little information for a meaningful estimate
		}
		est, ok := sess.EstimateArea()
		if !ok {
			t.Fatal("collected links must give an estimate")
		}
		total++
		if est.Center.Dist(area.Center) <= area.Radius+100 {
			near++
		}
	}
	frac := float64(near) / float64(total)
	t.Logf("estimates near the true area: %.0f%% (%d/%d)", 100*frac, near, total)
	if frac < 0.7 {
		t.Errorf("only %.0f%% of estimates near the truth; estimator is broken", 100*frac)
	}
}

// TestEstimateAreaDeterministic: on every Table II topology, repeated
// estimates of one session are bit-identical and equal the disk over
// the known links' midpoints in ascending link order (Welzl is
// order-sensitive in floating point, so any unordered gathering of the
// links shows here).
func TestEstimateAreaDeterministic(t *testing.T) {
	bits := func(d geom.Disk) [3]uint64 {
		return [3]uint64{math.Float64bits(d.Center.X), math.Float64bits(d.Center.Y), math.Float64bits(d.Radius)}
	}
	for _, name := range topology.ASNames() {
		topo := topology.GenerateAS(name, 1)
		r := New(topo, nil)
		tables := routing.ComputeTables(topo)
		rng := rand.New(rand.NewSource(41))
		n := topo.G.NumNodes()
		for sessions := 0; sessions < 10; {
			sc := failure.Default().Generate(topo, rng)
			lv := routing.NewLocalView(topo, sc)
			dst := graph.NodeID(rng.Intn(n))
			outcome, initiator, _ := routing.TraceDefault(tables, lv, graph.NodeID(rng.Intn(n)), dst)
			if outcome != routing.DefaultBlocked {
				continue
			}
			sess, err := r.NewSession(lv, initiator)
			if err != nil {
				t.Fatal(err)
			}
			_, trigger, _ := tables.NextHop(initiator, dst)
			col, err := sess.Collect(trigger)
			if err != nil {
				continue
			}
			sessions++
			known := append(append([]graph.LinkID(nil), col.Header.FailedLinks...), lv.UnreachableLinks(initiator)...)
			slices.Sort(known)
			known = slices.Compact(known)
			pts := make([]geom.Point, len(known))
			for i, id := range known {
				pts[i] = topo.LinkSegment(id).Midpoint()
			}
			want := bits(geom.SmallestEnclosingDisk(pts))
			for call := 0; call < 20; call++ {
				est, ok := sess.EstimateArea()
				if !ok || bits(est) != want {
					t.Fatalf("%s: call %d estimated %v (ok=%v), want the ascending-order disk %v",
						name, call, est, ok, geom.SmallestEnclosingDisk(pts))
				}
			}
		}
	}
}
