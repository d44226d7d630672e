package traffic_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/converged"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func testWorld(t *testing.T) *sim.World {
	t.Helper()
	w, err := sim.NewWorld("AS1239", 7)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runnerFor(t *testing.T, w *sim.World, name string) traffic.Runner {
	t.Helper()
	s, err := sim.LookupScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	return func(c *sim.Case) (bool, []routing.Walk, error) {
		r, err := s.Run(w, c)
		if err != nil {
			return false, nil, err
		}
		return r.Delivered, r.Walks, nil
	}
}

func mustGravity(t *testing.T, topo *topology.Topology, pairs int, rng *rand.Rand) *traffic.Matrix {
	t.Helper()
	m, err := traffic.Gravity(topo, pairs, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGravityRejectsPairCountsOutOfRange: a matrix of no demands, or of
// more than the n(n−1) ordered pairs of distinct nodes, is an error
// returned at once — the rejection-sampling draw would never finish
// past the bound. Each call runs under a deadline, so a draw that
// spins fails the test instead of stalling it.
func TestGravityRejectsPairCountsOutOfRange(t *testing.T) {
	topo := testWorld(t).Topo
	n := topo.G.NumNodes()
	for _, pairs := range []int{-1, 0, traffic.MaxPairs(n) + 1} {
		done := make(chan error, 1)
		go func() {
			_, err := traffic.Gravity(topo, pairs, rand.New(rand.NewSource(5)))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Gravity with %d pairs on %d nodes: no error", pairs, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Gravity with %d pairs on %d nodes did not return", pairs, n)
		}
	}
	if m := mustGravity(t, topo, traffic.MaxPairs(n), rand.New(rand.NewSource(5))); len(m.Demands) != traffic.MaxPairs(n) {
		t.Errorf("at the bound: %d demands, want %d", len(m.Demands), traffic.MaxPairs(n))
	}
}

func TestGravityDeterministicAndWellFormed(t *testing.T) {
	topo := testWorld(t).Topo
	m := mustGravity(t, topo, 100, rand.New(rand.NewSource(5)))
	if len(m.Demands) != 100 {
		t.Fatalf("got %d demands, want 100", len(m.Demands))
	}
	sum := 0.0
	seen := map[[2]int]bool{}
	for _, d := range m.Demands {
		if d.Src == d.Dst {
			t.Errorf("self pair %d->%d", d.Src, d.Dst)
		}
		if d.Rate <= 0 {
			t.Errorf("pair %d->%d: non-positive rate %v", d.Src, d.Dst, d.Rate)
		}
		k := [2]int{int(d.Src), int(d.Dst)}
		if seen[k] {
			t.Errorf("duplicate pair %v", k)
		}
		seen[k] = true
		sum += d.Rate
	}
	if math.Abs(sum-m.Total) > 1e-9*m.Total {
		t.Errorf("Total %v != demand sum %v", m.Total, sum)
	}
	again := mustGravity(t, topo, 100, rand.New(rand.NewSource(5)))
	if !reflect.DeepEqual(m, again) {
		t.Error("same (topology, seed, pairs) produced a different matrix")
	}
}

func TestCalibrationPutsCleanPeakAtTarget(t *testing.T) {
	w := testWorld(t)
	m := mustGravity(t, w.Topo, 200, rand.New(rand.NewSource(5)))
	base := traffic.Baseline(w, m)
	cap := traffic.CalibrateCapacity(base, traffic.HeavyLoadTarget)
	u := traffic.Summarize(base, cap, nil, w.Topo.G)
	if math.Abs(u.Peak-traffic.HeavyLoadTarget) > 1e-9 {
		t.Errorf("calibrated clean peak %v, want %v", u.Peak, traffic.HeavyLoadTarget)
	}
	if u.P99 > u.Peak || u.P50 > u.P99 || u.Mean > u.Peak || u.P50 < 0 {
		t.Errorf("column order violated: %+v", u)
	}
}

// TestRunUnderConservation: replaying the matrix under failures with
// each registered phase-2 scheme conserves flow exactly — offered =
// delivered + dropped — and never offers traffic from a dead source.
func TestRunUnderConservation(t *testing.T) {
	w := testWorld(t)
	m := mustGravity(t, w.Topo, 200, rand.New(rand.NewSource(5)))
	for _, name := range []string{sim.SchemeRTR, sim.SchemeSpread, sim.SchemeFCP} {
		run := runnerFor(t, w, name)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 3; i++ {
			sc := failure.RandomScenario(w.Topo, rng)
			load, fl, err := traffic.RunUnder(w, w.Converged(sc), m, run)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fl.Offered-(fl.Delivered+fl.Dropped)) > 1e-9*math.Max(fl.Offered, 1) {
				t.Errorf("%s scenario %d: offered %v != delivered %v + dropped %v",
					name, i, fl.Offered, fl.Delivered, fl.Dropped)
			}
			offered := 0.0
			for _, d := range m.Demands {
				if !sc.NodeDown(d.Src) {
					offered += d.Rate
				}
			}
			if math.Abs(fl.Offered-offered) > 1e-9*math.Max(offered, 1) {
				t.Errorf("%s scenario %d: offered %v, want live-source total %v", name, i, fl.Offered, offered)
			}
			for id, l := range load {
				if l < 0 {
					t.Errorf("%s scenario %d: negative load %v on link %d", name, i, l, id)
				}
			}
		}
	}
}

// TestReplaySharesOneWalkAndOneTree: a replay pays one phase-1 walk per
// (initiator, trigger) and one truth tree per initiator, however many
// flows block there. Counted on pointers: every blocked flow's case
// comes from the replay's State, its RTR result carries that State's
// one collection walk (same backing array, not a re-walk), and the
// State hands every flow of a key the same session and tree.
func TestReplaySharesOneWalkAndOneTree(t *testing.T) {
	w := testWorld(t)
	m := mustGravity(t, w.Topo, 600, rand.New(rand.NewSource(5)))
	type key struct {
		initiator graph.NodeID
		trigger   graph.LinkID
	}
	var (
		st       *converged.State
		sessions map[key]*converged.Session
		trees    map[graph.NodeID]*spt.Tree
		flows    int
	)
	run := func(c *sim.Case) (bool, []routing.Walk, error) {
		if c.State != st {
			t.Fatalf("flow %d->%d: case built on a State of its own", c.Initiator, c.Dst)
		}
		flows++
		k := key{c.Initiator, c.Trigger}
		se, tree := st.Session(k.initiator, k.trigger), st.Truth(k.initiator)
		if prev, ok := sessions[k]; ok && prev != se {
			t.Fatalf("%+v: second session", k)
		}
		if prev, ok := trees[k.initiator]; ok && prev != tree {
			t.Fatalf("initiator %d: second truth tree", k.initiator)
		}
		sessions[k], trees[k.initiator] = se, tree
		r, err := sim.RunRTR(w, c, nil)
		if err != nil {
			return false, nil, err
		}
		if p1 := r.Phase1.Records; len(p1) > 0 && &p1[0] != &se.Sess.Collected().Walk.Records[0] {
			t.Fatalf("%+v: RTR walked phase 1 again for %d", k, c.Dst)
		}
		return r.Recovered, []routing.Walk{r.Phase2}, nil
	}
	// Draw until a failure blocks more flows than it has initiators.
	rng := rand.New(rand.NewSource(9))
	for draw := 0; flows <= len(sessions) && draw < 20; draw++ {
		st = w.Converged(failure.RandomScenario(w.Topo, rng))
		sessions, trees, flows = map[key]*converged.Session{}, map[graph.NodeID]*spt.Tree{}, 0
		if _, _, err := traffic.RunUnder(w, st, m, run); err != nil {
			t.Fatal(err)
		}
	}
	if flows <= len(sessions) || len(sessions) < len(trees) {
		t.Fatalf("no sharing exercised: %d blocked flows, %d sessions, %d trees", flows, len(sessions), len(trees))
	}
	t.Logf("%d blocked flows rode %d sessions and %d truth trees", flows, len(sessions), len(trees))
	// The registry schemes ride the same State.
	for _, name := range []string{sim.SchemeRTR, sim.SchemeSpread} {
		inner := runnerFor(t, w, name)
		_, _, err := traffic.RunUnder(w, st, m, func(c *sim.Case) (bool, []routing.Walk, error) {
			if c.State != st || st.Session(c.Initiator, c.Trigger) != sessions[key{c.Initiator, c.Trigger}] {
				t.Fatalf("%s: flow %d->%d left the shared State", name, c.Initiator, c.Dst)
			}
			return inner(c)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpreadPeakVersusRTR compares post-recovery peak load between
// plain RTR and the load-spreading scheme across scenarios — the
// experiment the BENCH entries publish. The assertion is lenient
// (spreading can't do worse than RTR by more than the slack allows on
// aggregate peaks is not a theorem), so it only logs the measurement
// and requires both schemes to produce a valid aggregate.
func TestSpreadPeakVersusRTR(t *testing.T) {
	w := testWorld(t)
	m := mustGravity(t, w.Topo, 400, rand.New(rand.NewSource(5)))
	base := traffic.Baseline(w, m)
	cap := traffic.CalibrateCapacity(base, traffic.HeavyLoadTarget)
	peaks := map[string]float64{}
	for _, name := range []string{sim.SchemeRTR, sim.SchemeSpread} {
		run := runnerFor(t, w, name)
		res := &traffic.Result{Topology: "AS1239", Scheme: name, Pairs: len(m.Demands), Capacity: cap,
			Pre: traffic.Summarize(base, cap, nil, w.Topo.G)}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 5; i++ {
			sc := failure.RandomScenario(w.Topo, rng)
			load, fl, err := traffic.RunUnder(w, w.Converged(sc), m, run)
			if err != nil {
				t.Fatal(err)
			}
			res.Merge(traffic.Summarize(load, cap, sc, w.Topo.G), fl)
		}
		if res.Post.Peak <= 0 {
			t.Fatalf("%s: no post-recovery load measured", name)
		}
		peaks[name] = res.Post.Peak
		t.Logf("%s: pre peak %.4f post peak %.4f (delivered %.1f%%)",
			name, res.Pre.Peak, res.Post.Peak, 100*res.Flows.Delivered/res.Flows.Offered)
	}
	t.Logf("peak ratio rtr-spread/rtr = %.4f", peaks[sim.SchemeSpread]/peaks[sim.SchemeRTR])
}
