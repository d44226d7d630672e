package sim

// A discrete-event packet-level simulator for the pre-convergence
// window, kept as the independent check of the analytic per-flow
// restore model (restoreTimes, below): flows inject packets that are
// forwarded hop by hop (routing.HopDelay each) using whatever table
// each router currently has — stale before its IGP convergence time,
// fresh after — while RTR recovers blocked flows: the first blocked
// packet rides the collection walk, packets arriving during collection
// are held at the initiator (increased delay, no loss — Section
// III-A), and once the walk returns everything is source-routed over
// the recovery path. restoreTimes states the same dynamics in closed
// form; the simulator derives them from individual packet events, and
// TestPacketSimAgreesWithLossModel holds the two to each other.

import (
	"container/heap"
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
	"repro/internal/topology"
)

// packetFlow is a constant-rate packet source.
type packetFlow struct {
	Src, Dst graph.NodeID
	Interval time.Duration
}

// packetConfig parameterizes one simulation run.
type packetConfig struct {
	// Flows to inject from t=0.
	Flows []packetFlow
	// Horizon is the injection horizon; the run continues until all
	// in-flight packets resolve.
	Horizon time.Duration
	// Timers drive failure detection and per-router convergence.
	Timers igp.Timers
	// DisableRTR turns recovery off (packets on failed paths drop once
	// blocked), for the no-recovery baseline.
	DisableRTR bool
}

// packetFate records one packet's outcome.
type packetFate struct {
	Flow      int
	SentAt    time.Duration
	Delivered bool
	// DoneAt is the delivery or drop time.
	DoneAt time.Duration
	// Hops actually traversed.
	Hops int
	// Recovered marks delivery via an RTR recovery path.
	Recovered bool
}

// packetResult is every packet's fate, in injection order.
type packetResult struct {
	Fates []packetFate
}

// Delivered returns the number of delivered packets.
func (r *packetResult) Delivered() int {
	n := 0
	for _, f := range r.Fates {
		if f.Delivered {
			n++
		}
	}
	return n
}

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq int // tie-breaker for determinism
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// packetSim is one simulation instance. Build with newPacketSim, run
// with run.
type packetSim struct {
	// state supplies everything about the failure: the stale
	// pre-failure tables, the local view, the tables routers converge
	// to, and the initiators' RTR sessions.
	state *converged.State
	conv  *igp.Convergence
	cfg   packetConfig

	now time.Duration
	pq  eventQueue
	seq int

	// recovery state per (initiator, trigger), the key the model and
	// converged.State.Session use.
	sessions map[recoveryKey]*recoveryState

	result packetResult
}

type recoveryKey struct {
	initiator graph.NodeID
	trigger   graph.LinkID
}

type recoveryState struct {
	// sess is the initiator's prepared session for the trigger; nil
	// where collection was impossible.
	sess *core.Session
	// doneAt is when the collection walk returns to the initiator.
	doneAt time.Duration
	// held packets waiting for the walk, by arrival.
	held []heldPacket
}

type heldPacket struct {
	id  int
	dst graph.NodeID
}

// newPacketSim builds a simulator for the failure st converged on.
// Runs that differ only in cfg can share one State.
func newPacketSim(st *converged.State, cfg packetConfig) *packetSim {
	return &packetSim{
		state:    st,
		conv:     igp.Converge(st.Scenario(), cfg.Timers),
		cfg:      cfg,
		sessions: make(map[recoveryKey]*recoveryState),
	}
}

func (s *packetSim) schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.pq, &event{at: at, seq: s.seq, fn: fn})
}

// run injects all flows and processes events to completion.
func (s *packetSim) run() *packetResult {
	heap.Init(&s.pq)
	for fi, f := range s.cfg.Flows {
		for t := time.Duration(0); t < s.cfg.Horizon; t += f.Interval {
			s.schedule(t, func() { s.inject(fi, f) })
		}
	}
	for s.pq.Len() > 0 {
		e := heap.Pop(&s.pq).(*event)
		s.now = e.at
		e.fn()
	}
	return &s.result
}

// inject creates a packet and starts forwarding it at the source.
func (s *packetSim) inject(flow int, f packetFlow) {
	id := len(s.result.Fates)
	s.result.Fates = append(s.result.Fates, packetFate{Flow: flow, SentAt: s.now})
	if s.state.Scenario().NodeDown(f.Src) {
		s.drop(id)
		return
	}
	s.forwardDefault(id, f.Src, f.Dst)
}

func (s *packetSim) fate(id int) *packetFate { return &s.result.Fates[id] }

func (s *packetSim) drop(id int) {
	f := s.fate(id)
	f.Delivered = false
	f.DoneAt = s.now
}

func (s *packetSim) deliver(id int, recovered bool) {
	f := s.fate(id)
	f.Delivered = true
	f.Recovered = recovered
	f.DoneAt = s.now
}

// packetTTL bounds packet lifetime in hops, exactly like IP: during
// convergence, routers with inconsistent tables can form transient
// micro-loops, and the TTL is what kills the trapped packets.
const packetTTL = 255

// forwardDefault advances a packet one hop using the router's current
// table (stale until the router's convergence time).
func (s *packetSim) forwardDefault(id int, at, dst graph.NodeID) {
	if at == dst {
		s.deliver(id, false)
		return
	}
	if s.fate(id).Hops >= packetTTL {
		s.drop(id) // micro-loop during convergence
		return
	}
	tables := s.state.Pre()
	if t := s.conv.RouterTime[at]; t > 0 && s.now >= t {
		tables = s.state.Tables()
	}
	nh, link, ok := tables.NextHop(at, dst)
	if !ok {
		s.drop(id) // converged and still no route: unreachable
		return
	}
	if !s.state.LocalView().NeighborUnreachable(at, link) {
		s.fate(id).Hops++
		s.schedule(s.now+routing.HopDelay, func() { s.forwardDefault(id, nh, dst) })
		return
	}
	// Blocked. Before detection completes the router does not yet know
	// and the packet is lost on the dead link.
	if s.now < s.cfg.Timers.Detection {
		s.fate(id).Hops++
		s.drop(id)
		return
	}
	if s.cfg.DisableRTR {
		s.drop(id)
		return
	}
	s.recoverAt(id, recoveryKey{at, link}, dst)
}

// recoverAt hands a packet blocked on k.trigger to the RTR machinery
// at initiator k.initiator.
func (s *packetSim) recoverAt(id int, k recoveryKey, dst graph.NodeID) {
	st, ok := s.sessions[k]
	if !ok {
		st = &recoveryState{sess: s.state.Session(k.initiator, k.trigger).Sess}
		s.sessions[k] = st
		if st.sess != nil {
			// The blocked packet rides the collection walk and is back
			// at the initiator when it completes; later packets wait
			// with it (delayed, not dropped).
			st.doneAt = s.now + st.sess.Collected().Walk.Duration()
			s.schedule(st.doneAt, func() { s.releaseHeld(st) })
		}
	}
	if st.sess == nil {
		s.drop(id)
		return
	}
	if s.now < st.doneAt {
		st.held = append(st.held, heldPacket{id: id, dst: dst})
		return
	}
	s.sourceRoute(id, st, dst)
}

// releaseHeld source-routes everything that waited for the walk.
func (s *packetSim) releaseHeld(st *recoveryState) {
	held := st.held
	st.held = nil
	for _, h := range held {
		s.sourceRoute(h.id, st, h.dst)
	}
}

// sourceRoute sends a packet over the session's recovery path for
// dst, hop by hop; a missed failure on the path drops it.
func (s *packetSim) sourceRoute(id int, st *recoveryState, dst graph.NodeID) {
	rt, ok := st.sess.RecoveryPath(dst)
	if !ok {
		s.drop(id) // identified unreachable: early discard
		return
	}
	s.sourceHop(id, rt, 0)
}

func (s *packetSim) sourceHop(id int, rt core.Route, i int) {
	if i >= len(rt.Links) {
		s.deliver(id, true)
		return
	}
	if s.state.LocalView().NeighborUnreachable(rt.Nodes[i], rt.Links[i]) {
		s.drop(id) // phase 1 missed this failure
		return
	}
	s.fate(id).Hops++
	s.schedule(s.now+routing.HopDelay, func() { s.sourceHop(id, rt, i+1) })
}

// firstDelivery is the earliest delivery time of flow's packets,
// counting only recovered ones when recoveredOnly is set.
func (r *packetResult) firstDelivery(flow int, recoveredOnly bool) (time.Duration, bool) {
	var first time.Duration
	found := false
	for _, f := range r.Fates {
		if f.Flow != flow || !f.Delivered || (recoveredOnly && !f.Recovered) {
			continue
		}
		if !found || f.DoneAt < first {
			first, found = f.DoneAt, true
		}
	}
	return first, found
}

// paperPacketSim builds the worked-example world with one flow on the
// narrative path v7 -> v17.
func paperPacketSim(t *testing.T, cfg packetConfig) *packetSim {
	t.Helper()
	topo := topology.PaperExample()
	rtr := core.New(topo, nil)
	tables := routing.ComputeTables(topo)
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	if len(cfg.Flows) == 0 {
		cfg.Flows = []packetFlow{{Src: topology.PaperNode(7), Dst: topology.PaperNode(17), Interval: 10 * time.Millisecond}}
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = time.Second
	}
	if cfg.Timers == (igp.Timers{}) {
		cfg.Timers = igp.TunedTimers()
	}
	return newPacketSim(converged.New(topo, tables, rtr, sc), cfg)
}

func TestNoFailureAllDelivered(t *testing.T) {
	topo := topology.PaperExample()
	rtr := core.New(topo, nil)
	tables := routing.ComputeTables(topo)
	sc := failure.NewScenario(topo) // nothing fails
	cfg := packetConfig{
		Flows:   []packetFlow{{Src: topology.PaperNode(7), Dst: topology.PaperNode(17), Interval: 50 * time.Millisecond}},
		Horizon: time.Second,
		Timers:  igp.TunedTimers(),
	}
	res := newPacketSim(converged.New(topo, tables, rtr, sc), cfg).run()
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
	res := paperPacketSim(t, packetConfig{Timers: timers}).run()

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
	res := paperPacketSim(t, packetConfig{Timers: timers}).run()

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
	resWith := paperPacketSim(t, packetConfig{Timers: timers}).run()
	resWithout := paperPacketSim(t, packetConfig{Timers: timers, DisableRTR: true}).run()

	if resWith.Delivered() <= resWithout.Delivered() {
		t.Errorf("RTR must deliver more: %d vs %d", resWith.Delivered(), resWithout.Delivered())
	}
	// Without RTR, packets return only after the on-path routers
	// converge; with tuned timers inside a 1s horizon some late
	// packets make it via the post-convergence tables.
	late := func(r *packetResult) int {
		n := 0
		for _, f := range r.Fates {
			if f.SentAt >= 900*time.Millisecond && f.Delivered {
				n++
			}
		}
		return n
	}
	lateWith, lateWithout := late(resWith), late(resWithout)
	if lateWithout == 0 {
		t.Error("post-convergence packets must be delivered even without RTR")
	}
	if lateWith < lateWithout {
		t.Error("RTR must not hurt post-convergence delivery")
	}
}

// TestWorldFatesReproducible runs the simulator over a Rocketfuel-sized
// World (the *core.RTR handle, converged tables and post-failure state
// the harness builds) under a random failure: a second run on a freshly
// built world yields the identical per-packet fate list (delivery,
// hops, timestamps, recovery marks).
func TestWorldFatesReproducible(t *testing.T) {
	var base *packetResult
	for run := 0; run < 2; run++ {
		w, err := NewWorld("AS1239", 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		sc := failure.RandomScenario(w.Topo, rng)
		for !sc.HasFailures() {
			sc = failure.RandomScenario(w.Topo, rng)
		}
		n := w.Topo.G.NumNodes()
		var flows []packetFlow
		for i := 0; i < 8; i++ {
			src := graph.NodeID(rng.Intn(n))
			dst := graph.NodeID(rng.Intn(n))
			if src == dst || sc.NodeDown(src) {
				continue
			}
			flows = append(flows, packetFlow{Src: src, Dst: dst, Interval: 25 * time.Millisecond})
		}
		if len(flows) == 0 {
			t.Fatal("no flows drawn")
		}
		cfg := packetConfig{Flows: flows, Horizon: 600 * time.Millisecond, Timers: igp.TunedTimers()}
		res := newPacketSim(w.Converged(sc), cfg).run()
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

// TestSessionPerTrigger sends two flows from one initiator that block
// on different trigger links, with collection walks of different
// lengths. Each flow must ride its own trigger's walk: its first
// recovered packet arrives at detection + its own phase 1 + its own
// phase 2, as the model and converged.State.Session key sessions.
func TestSessionPerTrigger(t *testing.T) {
	// On AS3561 one perimeter walk often differs by trigger (several
	// failure holes meet at one initiator).
	w, err := NewWorld("AS3561", 1)
	if err != nil {
		t.Fatal(err)
	}
	timers := igp.TunedTimers()
	rng := rand.New(rand.NewSource(5))
	for draw := 0; draw < 20; draw++ {
		sc := failure.RandomScenario(w.Topo, rng)
		if !sc.HasFailures() {
			continue
		}
		rec, _ := CasesFromScenario(w, sc)
		outs := RunAll(w, rec)
		for i := range outs {
			for j := range outs {
				a, b := outs[i], outs[j]
				if a.Case.Initiator != b.Case.Initiator || a.Case.Trigger == b.Case.Trigger ||
					!a.RTR.Recovered || !b.RTR.Recovered || a.RTR.Phase1.Duration() >= b.RTR.Phase1.Duration() {
					continue
				}
				// Flow 0 blocks first (it is injected first), so a walk
				// keyed by initiator alone would carry flow 1 on a's.
				pair := []Outcome{a, b}
				var flows []packetFlow
				for _, o := range pair {
					flows = append(flows, packetFlow{Src: o.Case.Initiator, Dst: o.Case.Dst, Interval: 25 * time.Millisecond})
				}
				cfg := packetConfig{Flows: flows, Horizon: 100 * time.Millisecond, Timers: timers}
				res := newPacketSim(w.Converged(sc), cfg).run()
				for fi, o := range pair {
					want := timers.Detection + o.RTR.Phase1.Duration() + o.RTR.Phase2.Duration()
					got, ok := res.firstDelivery(fi, true)
					if !ok || got != want {
						t.Errorf("flow %d (trigger %d): first recovered delivery %v (found %v), want %v",
							fi, o.Case.Trigger, got, ok, want)
					}
				}
				return
			}
		}
	}
	t.Fatal("no initiator with two triggers of different walk lengths drawn")
}

// restoreTimes is the model of one recoverable case's flow: noRecAt
// is when IGP convergence restores it (pathConvergence), rtrAt when
// RTR does — detection plus the collection walk, after which held
// packets leave on the recovery path — or noRecAt when RTR did not
// recover the case. rtrAt is not clamped to noRecAt.
func restoreTimes(w *World, conv *igp.Convergence, timers igp.Timers, o Outcome) (noRecAt, rtrAt time.Duration) {
	noRecAt = pathConvergence(w, conv, o)
	if !o.RTR.Recovered {
		return noRecAt, noRecAt
	}
	return noRecAt, timers.Detection + o.RTR.Phase1.Duration()
}

// TestPacketSimAgreesWithLossModel is the differential of the analytic
// loss model (restoreTimes) against the packet simulator. On every
// Table II topology, random failures give recoverable cases; each
// sampled case becomes one flow from its initiator to its destination,
// sending every 25 ms (a divisor of the 50 ms detection time, so a
// packet is blocked at the initiator the instant detection completes).
// Then:
//
//   - (a) if RTR recovered the case, the flow's first recovered
//     delivery is exactly the model's RTR time plus the phase-2 path;
//   - (b) if it did not, nothing is delivered by recovery;
//   - (c) with RTR off, the first delivery is no later than the model's
//     no-recovery time plus the truth path's hops and one send
//     interval: the analytic outage is an upper bound.
func TestPacketSimAgreesWithLossModel(t *testing.T) {
	const (
		draws    = 8
		every    = 7 // sample every 7th recoverable case
		interval = 25 * time.Millisecond
	)
	timers := igp.TunedTimers()
	for _, as := range topology.ASNames() {
		w, err := NewWorld(as, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var recovered, unrecovered, early int
		for d := 0; d < draws; d++ {
			sc := failure.RandomScenario(w.Topo, rng)
			if !sc.HasFailures() {
				continue
			}
			rec, _ := CasesFromScenario(w, sc)
			var sample []*Case
			for i := 0; i < len(rec); i += every {
				sample = append(sample, rec[i])
			}
			outs := RunAll(w, sample)
			var flows []packetFlow
			var model []Outcome
			for _, o := range outs {
				if o.Err != nil {
					continue
				}
				flows = append(flows, packetFlow{Src: o.Case.Initiator, Dst: o.Case.Dst, Interval: interval})
				model = append(model, o)
			}
			conv := igp.Converge(sc, timers)
			st := w.Converged(sc)
			cfg := packetConfig{Flows: flows, Horizon: conv.Total + 100*time.Millisecond, Timers: timers}
			withRTR := newPacketSim(st, cfg).run()
			cfg.DisableRTR = true
			without := newPacketSim(st, cfg).run()

			for fi, o := range model {
				c := o.Case
				noRecAt, rtrAt := restoreTimes(w, conv, timers, o)
				first, ok := withRTR.firstDelivery(fi, true)
				if o.RTR.Recovered {
					recovered++
					if want := rtrAt + o.RTR.Phase2.Duration(); !ok || first != want {
						t.Errorf("%s %s (%d->%d): first recovered delivery %v (found %v), model says %v",
							as, sc.Desc(), c.Initiator, c.Dst, first, ok, want)
					}
				} else {
					unrecovered++
					if ok {
						t.Errorf("%s %s (%d->%d): RTR did not recover the case, yet a packet was recovered at %v",
							as, sc.Desc(), c.Initiator, c.Dst, first)
					}
				}
				hops, _ := st.Truth(c.Initiator).Hops(c.Dst)
				bound := noRecAt + time.Duration(hops)*routing.HopDelay + interval
				first, ok = without.firstDelivery(fi, false)
				if !ok || first > bound {
					t.Errorf("%s %s (%d->%d): without RTR first delivery %v (found %v), model bound %v",
						as, sc.Desc(), c.Initiator, c.Dst, first, ok, bound)
				}
				if ok && first < noRecAt {
					early++
				}
			}
		}
		if recovered == 0 {
			t.Errorf("%s: no recovered flow drawn", as)
		}
		t.Logf("%s: %d recovered + %d unrecovered flows checked; %d delivered before the model's no-recovery time",
			as, recovered, unrecovered, early)
	}
}
