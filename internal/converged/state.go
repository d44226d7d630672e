// Package converged holds the one post-failure state every layer
// shares. The paper's efficiency argument is that a recovery initiator
// pays phase 1 and one shortest-path calculation once and "benefits
// all destinations"; State is that unit of sharing for one (world,
// failure scenario) pair: the local view, the post-failure tables, the
// ground-truth component labelling, one ground-truth tree per
// initiator, one prepared RTR session per (initiator, trigger), and
// one FCP pruned-view tree per (router, carried failed links).
// Everything is built on first use, once, and is read-only afterwards
// (two FCP recoveries racing on one tree may both compute it; the
// first insert wins and the two are identical), so any number of
// goroutines — sweep workers, served queries, traffic replays — share
// one State. The invariant oracle is deliberately not a client: it
// opens its own sessions and runs FCP without the memo, so it stays
// independent of what it checks.
package converged

import (
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fcp"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// State is the converged post-failure state of one scenario on one
// world. Safe for concurrent use.
type State struct {
	topo *topology.Topology
	pre  *routing.Tables
	rtr  *core.RTR
	sc   *failure.Scenario
	lv   *routing.LocalView

	postOnce sync.Once
	post     *routing.Tables

	compOnce sync.Once
	comp     []int32 // component label per node, -1 for failed nodes

	clustersOnce sync.Once
	clusters     [][]graph.LinkID

	mu       sync.Mutex
	truth    map[graph.NodeID]*truthEntry
	sessions map[sessKey]*Session

	fcpTrees fcp.Memo
}

type truthEntry struct {
	once sync.Once
	tree *spt.Tree
}

type sessKey struct {
	initiator graph.NodeID
	trigger   graph.LinkID
}

// Session is the memoised outcome of opening RTR at one (initiator,
// trigger): exactly one of Err (the session or its collection
// failed), NoLive (the initiator is fully cut off — recovery is
// impossible and nothing was spent), or Sess (collected and prepared,
// hence read-only: callers extract routes into their own buffers).
type Session struct {
	once   sync.Once
	Sess   *core.Session
	NoLive bool
	Err    error
}

// New returns the state of sc on the world described by its topology,
// pre-failure tables and RTR engine. It does no work beyond wrapping
// sc into a local view; every expensive piece waits for first use.
func New(topo *topology.Topology, pre *routing.Tables, rtr *core.RTR, sc *failure.Scenario) *State {
	return &State{
		topo: topo, pre: pre, rtr: rtr, sc: sc,
		lv:       routing.NewLocalView(topo, sc),
		truth:    make(map[graph.NodeID]*truthEntry),
		sessions: make(map[sessKey]*Session),
	}
}

// Scenario returns the failure the state converged on.
func (s *State) Scenario() *failure.Scenario { return s.sc }

// LocalView returns the per-router window onto the failure.
func (s *State) LocalView() *routing.LocalView { return s.lv }

// Pre returns the pre-failure tables routers keep forwarding with
// until they converge.
func (s *State) Pre() *routing.Tables { return s.pre }

// Tables returns the converged tables of the surviving topology,
// warmed from the pre-failure tables by the delete-only incremental
// recompute one destination at a time, on first use (bit-identical to
// a cold build).
func (s *State) Tables() *routing.Tables {
	s.postOnce.Do(func() {
		s.post = routing.RecomputeTablesUnder(s.topo, s.pre, s.sc)
	})
	return s.post
}

// Recoverable is the ground-truth classification of a pair: src and
// dst are live and in the same component of the surviving topology.
// The protocols never see it.
func (s *State) Recoverable(src, dst graph.NodeID) bool {
	s.compOnce.Do(func() {
		s.comp = make([]int32, s.topo.G.NumNodes())
		for i := range s.comp {
			s.comp[i] = -1
		}
		for ci, c := range s.topo.G.Components(s.sc) {
			for _, v := range c {
				s.comp[v] = int32(ci)
			}
		}
	})
	return s.comp[src] >= 0 && s.comp[src] == s.comp[dst]
}

// Clusters returns the failure's perimeter clusters (the invariant
// oracle's profile depends on whether there is more than one).
func (s *State) Clusters() [][]graph.LinkID {
	s.clustersOnce.Do(func() { s.clusters = s.sc.Clusters() })
	return s.clusters
}

// Truth returns the ground-truth post-failure forward tree rooted at
// initiator, shared by every destination and every protocol graded at
// that initiator. Grading must read costs from this tree and never
// from the reverse trees in Tables: a reverse tree can pick an
// equal-cost path whose float sum differs in the last ulp. Callers
// needing different initiators proceed in parallel; callers needing
// the same one wait for a single computation.
func (s *State) Truth(initiator graph.NodeID) *spt.Tree {
	s.mu.Lock()
	e := s.truth[initiator]
	if e == nil {
		e = &truthEntry{}
		s.truth[initiator] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		// Warm start: the initiator's clean tree (cached by RTR — every
		// link-state router maintains it anyway) plus the delete-only
		// update under the scenario. Bit-identical to a cold
		// spt.Compute, but only the subtree hanging off the failure
		// area is rebuilt.
		e.tree = spt.Recompute(s.topo.G, s.rtr.CleanTree(initiator), graph.Nothing, s.sc)
	})
	return e.tree
}

// FCPTrees returns the memo of FCP's pruned-view trees that recoveries
// under this state share (fcp.FCP.RecoverWith on the world's engine):
// the first recovery to reach a (router, carried failed links) pair
// computes its tree, later ones extract routes from it, and each still
// counts one shortest-path calculation. It grows with the distinct
// pairs the state's cases reach, and lives as long as the state.
func (s *State) FCPTrees() *fcp.Memo { return &s.fcpTrees }

// Session returns the shared RTR session for (initiator, trigger),
// opening, collecting, classifying and preparing it on first use: one
// phase-1 walk and one pruned-view shortest-path calculation serve
// every destination behind that pair of coordinates. Growth is bounded
// by the failure's perimeter — only initiators adjacent to the failure
// open sessions, and triggers are their incident failed links.
func (s *State) Session(initiator graph.NodeID, trigger graph.LinkID) *Session {
	k := sessKey{initiator, trigger}
	s.mu.Lock()
	se := s.sessions[k]
	if se == nil {
		se = &Session{}
		s.sessions[k] = se
	}
	s.mu.Unlock()
	se.once.Do(func() {
		sess, err := s.rtr.NewSession(s.lv, initiator)
		if err == nil {
			_, err = sess.Collect(trigger)
		}
		switch {
		case errors.Is(err, core.ErrNoLiveNeighbor):
			se.NoLive = true
		case err != nil:
			se.Err = err
		default:
			sess.Prepare()
			se.Sess = sess
		}
	})
	return se
}
