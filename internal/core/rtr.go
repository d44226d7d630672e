// Package core implements RTR — Reactive Two-phase Rerouting — the
// paper's primary contribution. RTR recovers failed intra-domain
// routing paths during IGP convergence:
//
//   - Phase 1 (collect.go) forwards a packet around the failure area
//     with a counterclockwise-sweep right-hand rule, constrained so
//     the walk works on general (non-planar) graphs, while routers
//     adjacent to the failure record their failed links in the packet
//     header.
//   - Phase 2 (recover.go) prunes the collected failures from the
//     initiator's view of the topology, incrementally recomputes the
//     shortest path tree, and source-routes packets along the new
//     shortest paths.
//
// The package never touches ground truth directly: all failure
// information flows through routing.LocalView (what a real router can
// observe) and the packet header (what the protocol carries).
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// RTR is a recovery engine bound to one topology. It holds everything
// the paper assumes every router already has: the pre-failure
// topology, the coordinates of all nodes (via the topology), the
// precomputed cross-link index, and the converged shortest path trees.
// An RTR value is safe for concurrent use.
type RTR struct {
	topo *topology.Topology
	ci   *topology.CrossIndex
	// paperTermination makes phase 1 terminate exactly as the paper
	// specifies (initiator re-selects the first hop), without the
	// enclosure verification; see WithPaperTermination.
	paperTermination bool

	// Lazily cached pre-failure forward SPT per node. Each entry is
	// guarded by its own sync.Once so concurrent sessions warm up
	// different roots in parallel — a single engine-wide mutex here
	// used to serialize every RunAll worker behind full Dijkstra runs.
	cleanOnce []sync.Once
	clean     []*spt.Tree
}

// Option configures an RTR engine.
type Option func(*RTR)

// WithPaperTermination disables the winding-angle enclosure check and
// terminates phase 1 exactly as the paper's Rule 3 states: the first
// time the initiator's sweep re-selects the first hop. Early-closing
// cycles then go undetected; the option exists for the ablation
// experiments that quantify what the verification buys.
func WithPaperTermination() Option {
	return func(r *RTR) { r.paperTermination = true }
}

// New creates an RTR engine for topo. The cross-link index may be
// shared with other consumers; if nil it is built here.
func New(topo *topology.Topology, ci *topology.CrossIndex, opts ...Option) *RTR {
	if ci == nil {
		ci = topology.BuildCrossIndex(topo)
	}
	r := &RTR{
		topo:      topo,
		ci:        ci,
		cleanOnce: make([]sync.Once, topo.G.NumNodes()),
		clean:     make([]*spt.Tree, topo.G.NumNodes()),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Heuristic returns nil: phase 2 has one engine, the incremental
// shortest path tree, and no search heuristic. It is kept only because
// the benchmark harness passes it to mrc.NewWarmPhase2.
func (r *RTR) Heuristic() spt.Heuristic { return nil }

// Topology returns the engine's topology.
func (r *RTR) Topology() *topology.Topology { return r.topo }

// CrossIndex returns the engine's cross-link index.
func (r *RTR) CrossIndex() *topology.CrossIndex { return r.ci }

// cleanTree returns the cached pre-failure forward shortest path tree
// rooted at v — the SPT every link-state router maintains anyway, which
// phase 2's incremental recomputation starts from.
func (r *RTR) cleanTree(v graph.NodeID) *spt.Tree {
	r.cleanOnce[v].Do(func() {
		r.clean[v] = spt.Compute(r.topo.G, v, graph.Nothing)
	})
	return r.clean[v]
}

// CleanTree returns the cached pre-failure forward shortest path tree
// rooted at v. The tree is shared: callers must treat it as read-only.
// The experiment harness uses it to warm-start post-failure truth
// trees via the delete-only incremental recompute, sharing one cache
// with phase 2's recovery sessions.
func (r *RTR) CleanTree(v graph.NodeID) *spt.Tree { return r.cleanTree(v) }

// Errors returned by the recovery engine.
var (
	// ErrInitiatorDown is returned when a session is requested at a
	// failed router.
	ErrInitiatorDown = errors.New("core: recovery initiator is down")
	// ErrNoLiveNeighbor is returned when the initiator has no live
	// neighbor at all, so neither collection nor recovery is possible.
	ErrNoLiveNeighbor = errors.New("core: recovery initiator has no live neighbor")
	// ErrNotUnreachable is returned when the trigger link's far end is
	// in fact reachable — RTR is only invoked for failed next hops.
	ErrNotUnreachable = errors.New("core: trigger next hop is reachable")
	// ErrTriggerMismatch is returned when Collect is called with a
	// different trigger link than the session's first collection. The
	// cached walk is specific to the trigger (it seeds the sweep), so
	// silently returning it for another trigger would hand the caller a
	// walk that never happened; sessions are per-(initiator, trigger).
	ErrTriggerMismatch = errors.New("core: session already collected with a different trigger link")
)

// Session is one recovery initiator's RTR state for one failure event:
// the collected failure information and the recomputed shortest path
// tree, shared across all destinations the initiator must recover (the
// paper: "the first phase ... can benefit all destinations" and
// "caching the recovery paths, the recovery initiator needs to
// calculate the shortest path only once for each destination").
// A Session is single-owner state and is not safe for concurrent use;
// the RTR engine it comes from is.
type Session struct {
	r         *RTR
	lv        *routing.LocalView
	initiator graph.NodeID

	collected *CollectResult
	trigger   graph.LinkID   // the link Collect first ran with (valid iff collected != nil)
	seeded    []graph.LinkID // failures carried in by the packet (multi-area)

	pruned  *graph.Mask // initiator's view: collected + own + seeded failures
	tree    *spt.Tree   // forward SPT from initiator over the pruned view
	spCalcs int
}

// NewSession opens a recovery session at initiator under the local
// view lv.
func (r *RTR) NewSession(lv *routing.LocalView, initiator graph.NodeID) (*Session, error) {
	if !lv.NodeAlive(initiator) {
		return nil, fmt.Errorf("%w: node %d", ErrInitiatorDown, initiator)
	}
	return &Session{r: r, lv: lv, initiator: initiator}, nil
}

// Initiator returns the session's recovery initiator.
func (s *Session) Initiator() graph.NodeID { return s.initiator }

// SPCalcs returns the number of shortest-path calculations the session
// has performed — the paper's computational-overhead metric.
func (s *Session) SPCalcs() int { return s.spCalcs }

// Collected returns the phase-1 result, or nil before collection.
func (s *Session) Collected() *CollectResult { return s.collected }

// SeedFailedLinks injects failures already known from the packet
// header (the multi-area case of Section III-E: a packet that bypassed
// failure area F1 carries F1's failed links, and the next initiator
// removes them too). Must be called before RecoveryPath.
func (s *Session) SeedFailedLinks(ids []graph.LinkID) {
	s.seeded = append(s.seeded, ids...)
	s.pruned = nil // invalidate any previously built view
	s.tree = nil
}
