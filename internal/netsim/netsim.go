// Package netsim is a discrete-event packet-level simulator for the
// pre-convergence window: flows inject packets that are forwarded hop
// by hop (1.8 ms each) using whatever table each router currently has
// — stale before its IGP convergence time, fresh after — while RTR
// recovers blocked flows: the first blocked packet rides the
// collection walk, packets arriving during collection are held at the
// initiator (increased delay, no loss — Section III-A), and once the
// walk returns everything is source-routed over the recovery path.
//
// The packages above (sim, igp) model the same dynamics analytically;
// netsim derives them from individual packet events, and the test
// suite cross-checks the two.
package netsim

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/igp"
	"repro/internal/routing"
)

// Flow is a constant-rate packet source.
type Flow struct {
	Src, Dst graph.NodeID
	Interval time.Duration
}

// Config parameterizes one simulation run.
type Config struct {
	// Flows to inject from t=0.
	Flows []Flow
	// Horizon is the injection horizon; the run continues until all
	// in-flight packets resolve.
	Horizon time.Duration
	// Timers drive failure detection and per-router convergence.
	Timers igp.Timers
	// DisableRTR turns recovery off (packets on failed paths drop once
	// blocked), for the no-recovery baseline.
	DisableRTR bool
}

// PacketFate records one packet's outcome.
type PacketFate struct {
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

// Result aggregates a run.
type Result struct {
	Fates []PacketFate
}

// Delivered returns the number of delivered packets.
func (r *Result) Delivered() int {
	n := 0
	for _, f := range r.Fates {
		if f.Delivered {
			n++
		}
	}
	return n
}

// DeliveredBetween counts packets SENT in [from, to) that were
// eventually delivered, and the total sent in that window.
func (r *Result) DeliveredBetween(from, to time.Duration) (delivered, sent int) {
	for _, f := range r.Fates {
		if f.SentAt < from || f.SentAt >= to {
			continue
		}
		sent++
		if f.Delivered {
			delivered++
		}
	}
	return delivered, sent
}

// MeanDelay returns the average end-to-end delay of delivered packets
// matching the filter (nil = all).
func (r *Result) MeanDelay(filter func(PacketFate) bool) time.Duration {
	var sum time.Duration
	n := 0
	for _, f := range r.Fates {
		if !f.Delivered {
			continue
		}
		if filter != nil && !filter(f) {
			continue
		}
		sum += f.DoneAt - f.SentAt
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
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

// Sim is one simulation instance. Build with New, run with Run.
type Sim struct {
	// state supplies everything about the failure: the stale
	// pre-failure tables, the local view, the tables routers converge
	// to, and the initiators' RTR sessions.
	state *converged.State
	conv  *igp.Convergence
	cfg   Config

	now time.Duration
	pq  eventQueue
	seq int

	// recovery state per initiator.
	sessions map[graph.NodeID]*recoveryState

	result Result
}

type recoveryState struct {
	// sess is the initiator's prepared session; nil where collection
	// was impossible.
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

// New builds a simulator for the failure st converged on. Runs that
// differ only in cfg can share one State.
func New(st *converged.State, cfg Config) *Sim {
	return &Sim{
		state:    st,
		conv:     igp.Converge(st.Scenario(), cfg.Timers),
		cfg:      cfg,
		sessions: make(map[graph.NodeID]*recoveryState),
	}
}

func (s *Sim) schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.pq, &event{at: at, seq: s.seq, fn: fn})
}

// Run injects all flows and processes events to completion.
func (s *Sim) Run() *Result {
	heap.Init(&s.pq)
	for fi, f := range s.cfg.Flows {
		fi, f := fi, f
		if f.Interval <= 0 {
			panic(fmt.Sprintf("netsim: flow %d has non-positive interval", fi))
		}
		for t := time.Duration(0); t < s.cfg.Horizon; t += f.Interval {
			t := t
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
func (s *Sim) inject(flow int, f Flow) {
	id := len(s.result.Fates)
	s.result.Fates = append(s.result.Fates, PacketFate{Flow: flow, SentAt: s.now})
	if s.state.Scenario().NodeDown(f.Src) {
		s.drop(id)
		return
	}
	s.forwardDefault(id, f.Src, f.Dst)
}

func (s *Sim) fate(id int) *PacketFate { return &s.result.Fates[id] }

func (s *Sim) drop(id int) {
	f := s.fate(id)
	f.Delivered = false
	f.DoneAt = s.now
}

func (s *Sim) deliver(id int, recovered bool) {
	f := s.fate(id)
	f.Delivered = true
	f.Recovered = recovered
	f.DoneAt = s.now
}

// TTL bounds packet lifetime in hops, exactly like IP: during
// convergence, routers with inconsistent tables can form transient
// micro-loops, and the TTL is what kills the trapped packets.
const TTL = 255

// forwardDefault advances a packet one hop using the router's current
// table (stale until the router's convergence time).
func (s *Sim) forwardDefault(id int, at, dst graph.NodeID) {
	if at == dst {
		s.deliver(id, false)
		return
	}
	if s.fate(id).Hops >= TTL {
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
	s.recoverAt(id, at, dst, link)
}

// recoverAt hands a blocked packet to the RTR machinery at initiator v.
func (s *Sim) recoverAt(id int, v, dst graph.NodeID, trigger graph.LinkID) {
	st, ok := s.sessions[v]
	if !ok {
		st = &recoveryState{sess: s.state.Session(v, trigger).Sess}
		s.sessions[v] = st
		if st.sess != nil {
			// The blocked packet rides the collection walk and is back
			// at v when it completes; later packets wait with it
			// (delayed, not dropped).
			st.doneAt = s.now + st.sess.Collected().Walk.Duration()
			s.schedule(st.doneAt, func() { s.releaseHeld(v) })
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
func (s *Sim) releaseHeld(v graph.NodeID) {
	st := s.sessions[v]
	held := st.held
	st.held = nil
	for _, h := range held {
		s.sourceRoute(h.id, st, h.dst)
	}
}

// sourceRoute sends a packet over the initiator's recovery path for
// dst, hop by hop; a missed failure on the path drops it.
func (s *Sim) sourceRoute(id int, st *recoveryState, dst graph.NodeID) {
	rt, ok := st.sess.RecoveryPath(dst)
	if !ok {
		s.drop(id) // identified unreachable: early discard
		return
	}
	s.sourceHop(id, rt, 0)
}

func (s *Sim) sourceHop(id int, rt core.Route, i int) {
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
