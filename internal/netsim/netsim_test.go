package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/igp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// paperSim builds the worked-example world with one flow on the
// narrative path v7 -> v17.
func paperSim(t *testing.T, cfg Config) (*Sim, *topology.Topology) {
	t.Helper()
	topo := topology.PaperExample()
	rtr := core.New(topo, nil)
	tables := routing.ComputeTables(topo)
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	if len(cfg.Flows) == 0 {
		cfg.Flows = []Flow{{Src: topology.PaperNode(7), Dst: topology.PaperNode(17), Interval: 10 * time.Millisecond}}
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = time.Second
	}
	if cfg.Timers == (igp.Timers{}) {
		cfg.Timers = igp.TunedTimers()
	}
	return New(converged.New(topo, tables, rtr, sc), cfg), topo
}

func TestNoFailureAllDelivered(t *testing.T) {
	topo := topology.PaperExample()
	rtr := core.New(topo, nil)
	tables := routing.ComputeTables(topo)
	sc := failure.NewScenario(topo) // nothing fails
	cfg := Config{
		Flows:   []Flow{{Src: topology.PaperNode(7), Dst: topology.PaperNode(17), Interval: 50 * time.Millisecond}},
		Horizon: time.Second,
		Timers:  igp.TunedTimers(),
	}
	res := New(converged.New(topo, tables, rtr, sc), cfg).Run()
	if len(res.Fates) != 20 {
		t.Fatalf("sent %d packets, want 20", len(res.Fates))
	}
	if res.Delivered() != len(res.Fates) {
		t.Fatalf("delivered %d of %d without failures", res.Delivered(), len(res.Fates))
	}
	// All take the 4-hop converged path: delay exactly 4 x 1.8 ms.
	for _, f := range res.Fates {
		if f.Hops != 4 || f.DoneAt-f.SentAt != 4*routing.HopDelay {
			t.Fatalf("fate %+v, want 4 hops at 7.2 ms", f)
		}
		if f.Recovered {
			t.Fatal("no recovery should happen without failures")
		}
	}
}

func TestRecoveryTimeline(t *testing.T) {
	timers := igp.TunedTimers()
	sim, _ := paperSim(t, Config{Timers: timers})
	res := sim.Run()

	var preDetect, recovered, converged int
	for _, f := range res.Fates {
		// The packet reaches the initiator v6 after one hop (1.8 ms).
		blockedAt := f.SentAt + routing.HopDelay
		switch {
		case blockedAt < timers.Detection:
			// Dropped on the dead link before detection.
			if f.Delivered {
				t.Fatalf("packet sent at %v delivered before detection?", f.SentAt)
			}
			preDetect++
		case !f.Delivered:
			t.Fatalf("post-detection packet lost on the fixture: %+v", f)
		case f.Recovered:
			recovered++
			// 1 hop to v6 plus the 5-hop recovery path.
			if f.Hops != 6 {
				t.Fatalf("recovered packet hops = %d, want 6", f.Hops)
			}
		default:
			// Sent after the on-path routers converged: the fresh
			// tables route v7 -> v17 in 5 hops, no recovery involved.
			converged++
			if f.Hops != 5 {
				t.Fatalf("post-convergence packet hops = %d, want 5", f.Hops)
			}
		}
	}
	if preDetect == 0 {
		t.Error("some packets must die before detection")
	}
	if recovered == 0 {
		t.Error("packets between detection and convergence must be recovered by RTR")
	}
	if converged == 0 {
		t.Error("packets after convergence must use the fresh tables")
	}
}

func TestHeldPacketsDelayedNotDropped(t *testing.T) {
	// Packets arriving at the initiator during the collection walk are
	// delayed by the walk, not dropped (Section III-A).
	timers := igp.TunedTimers()
	sim, _ := paperSim(t, Config{Timers: timers})
	res := sim.Run()

	// The first post-detection packet triggers collection (11-hop walk,
	// 19.8 ms). A packet arriving at v6 during that window must be
	// delivered with extra delay.
	walk := 11 * routing.HopDelay
	foundHeld := false
	for _, f := range res.Fates {
		blockedAt := f.SentAt + routing.HopDelay
		if blockedAt < timers.Detection || !f.Delivered {
			continue
		}
		minDelay := 6 * routing.HopDelay // 1 hop to v6 + 5-hop recovery path
		delay := f.DoneAt - f.SentAt
		if delay > minDelay {
			foundHeld = true
			if delay > minDelay+walk+routing.HopDelay {
				t.Fatalf("held packet delayed %v, more than walk+path", delay)
			}
		}
	}
	if !foundHeld {
		t.Error("some packets must be held during the collection walk")
	}
}

func TestDisableRTRBaseline(t *testing.T) {
	timers := igp.TunedTimers()
	with, _ := paperSim(t, Config{Timers: timers})
	resWith := with.Run()
	without, _ := paperSim(t, Config{Timers: timers, DisableRTR: true})
	resWithout := without.Run()

	if resWith.Delivered() <= resWithout.Delivered() {
		t.Errorf("RTR must deliver more: %d vs %d", resWith.Delivered(), resWithout.Delivered())
	}
	// Without RTR, packets return only after the on-path routers
	// converge; with tuned timers inside a 1s horizon some late
	// packets make it via the post-convergence tables.
	lateWith, _ := resWith.DeliveredBetween(900*time.Millisecond, time.Second)
	lateWithout, _ := resWithout.DeliveredBetween(900*time.Millisecond, time.Second)
	if lateWithout == 0 {
		t.Error("post-convergence packets must be delivered even without RTR")
	}
	if lateWith < lateWithout {
		t.Error("RTR must not hurt post-convergence delivery")
	}
}

func TestDeliveredBetweenAndMeanDelay(t *testing.T) {
	sim, _ := paperSim(t, Config{Timers: igp.TunedTimers()})
	res := sim.Run()
	d, s := res.DeliveredBetween(0, time.Second)
	if s != len(res.Fates) {
		t.Errorf("window covers all packets: %d vs %d", s, len(res.Fates))
	}
	if d != res.Delivered() {
		t.Errorf("window delivery mismatch: %d vs %d", d, res.Delivered())
	}
	if md := res.MeanDelay(nil); md <= 0 {
		t.Errorf("mean delay = %v", md)
	}
	onlyRecovered := res.MeanDelay(func(f PacketFate) bool { return f.Recovered })
	if onlyRecovered < 6*routing.HopDelay {
		t.Errorf("recovered mean delay %v below the 6-hop floor", onlyRecovered)
	}
}

// TestAgreesWithAnalyticModel cross-checks the discrete-event
// simulator against the analytic availability model (sim.GoodputSeries
// logic): on random scenarios, the fraction of late-sent packets
// delivered with RTR must be at least the fraction without.
func TestAgreesWithAnalyticModel(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 7)
	rtr := core.New(topo, nil)
	tables := routing.ComputeTables(topo)
	rng := rand.New(rand.NewSource(3))
	timers := igp.TunedTimers()

	checked := 0
	for trial := 0; trial < 30 && checked < 5; trial++ {
		sc := failure.RandomScenario(topo, rng)
		if !sc.HasFailures() {
			continue
		}
		var flows []Flow
		n := topo.G.NumNodes()
		for i := 0; i < 6; i++ {
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			if src == dst || sc.NodeDown(src) {
				continue
			}
			flows = append(flows, Flow{Src: src, Dst: dst, Interval: 20 * time.Millisecond})
		}
		if len(flows) == 0 {
			continue
		}
		checked++
		cfg := Config{Flows: flows, Horizon: 800 * time.Millisecond, Timers: timers}
		withRTR := New(converged.New(topo, tables, rtr, sc), cfg).Run()
		cfg.DisableRTR = true
		without := New(converged.New(topo, tables, rtr, sc), cfg).Run()
		if withRTR.Delivered() < without.Delivered() {
			t.Fatalf("RTR delivered fewer packets (%d) than no recovery (%d)",
				withRTR.Delivered(), without.Delivered())
		}
		if len(withRTR.Fates) != len(without.Fates) {
			t.Fatal("runs must inject identical packet sets")
		}
	}
	if checked == 0 {
		t.Skip("no usable scenarios drawn")
	}
}

func TestBadFlowPanics(t *testing.T) {
	sim, _ := paperSim(t, Config{
		Flows:   []Flow{{Src: 0, Dst: 1, Interval: 0}},
		Horizon: time.Second,
		Timers:  igp.TunedTimers(),
	})
	defer func() {
		if recover() == nil {
			t.Error("zero interval must panic")
		}
	}()
	sim.Run()
}

// TestWorldFatesReproducible runs the discrete-event simulator over a
// Rocketfuel-sized sim.World (the *core.RTR handle, converged tables
// and post-failure state the harness builds) under a random failure:
// packets are sent, and a second run on a freshly
// built world yields the identical per-packet fate list (delivery,
// hops, timestamps, recovery marks).
func TestWorldFatesReproducible(t *testing.T) {
	var base *Result
	for run := 0; run < 2; run++ {
		w, err := sim.NewWorld("AS1239", 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		sc := failure.RandomScenario(w.Topo, rng)
		for !sc.HasFailures() {
			sc = failure.RandomScenario(w.Topo, rng)
		}
		n := w.Topo.G.NumNodes()
		var flows []Flow
		for i := 0; i < 8; i++ {
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			if src == dst || sc.NodeDown(src) {
				continue
			}
			flows = append(flows, Flow{Src: src, Dst: dst, Interval: 25 * time.Millisecond})
		}
		if len(flows) == 0 {
			t.Fatal("no flows drawn")
		}
		cfg := Config{Flows: flows, Horizon: 600 * time.Millisecond, Timers: igp.TunedTimers()}
		res := New(w.Converged(sc), cfg).Run()
		if len(res.Fates) == 0 {
			t.Fatal("no packets sent")
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Fates, base.Fates) {
			t.Error("packet fates differ between two runs on rebuilt worlds")
		}
	}
}
