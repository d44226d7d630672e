package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// CollectResult is the outcome of RTR's first phase.
type CollectResult struct {
	// Header is the packet header after the walk: failed_link holds
	// the collected failures, cross_link the constraint entries.
	Header routing.Header
	// Walk is the hop-by-hop trajectory around the failure area.
	Walk routing.Walk
	// FirstHop is the neighbor the initiator first forwarded to.
	FirstHop graph.NodeID
	// Constrained records whether Constraints 1 and 2 were enforced
	// (they always are in normal operation; the unconstrained variant
	// exists to demonstrate the Fig. 4 forwarding disorder).
	Constrained bool
	// Enclosed reports whether the walk's winding angle confirms the
	// cycle actually wound around the failure (always true when it
	// did; false for failure areas on the network border, which cannot
	// be enclosed, and for walks that exhausted their exploration).
	Enclosed bool
	// Escapes counts the times the walk deviated from the paper's
	// deterministic sweep to avoid re-traversing a directed edge. The
	// paper's Theorem 1 argues permanent loops cannot occur, but its
	// proof only shows a return path exists — the deterministic rule
	// does not always follow it: a Constraint-2 insertion can exclude
	// the one link leading back to the initiator after the walk
	// already passed it (see DESIGN.md).
	Escapes int
	// Truncated reports that the walk ran out of fresh directed edges,
	// hop budget, or productivity away from home and retraced itself
	// back to the initiator, so the collected information still
	// arrives; the return at most doubles the walk.
	Truncated bool
	// FieldSizes[i] holds the number of failed_link and cross_link
	// entries carried on Walk.Records[i] — since both fields are
	// append-only, Header.FailedLinks[:Failed] and
	// Header.CrossLinks[:Cross] reproduce the exact per-hop contents
	// (Table I's rows).
	FieldSizes []FieldSizes
}

// FieldSizes is a per-hop snapshot of the header's list lengths.
type FieldSizes struct {
	Failed, Cross int
}

// Duration returns the first-phase duration under the paper's delay
// model (Fig. 7's metric).
func (c *CollectResult) Duration() int64 {
	return int64(c.Walk.Duration())
}

// Collect runs phase 1 from the session's initiator. trigger is the
// initiator's link toward the unreachable default next hop that
// invoked RTR (the sweeping line of the first-hop selection). The
// result is cached: repeated calls with the same trigger return the
// first walk, because the first phase "needs to run only once at a
// recovery initiator and can benefit all destinations". A different
// trigger is rejected with ErrTriggerMismatch — the cached walk is
// trigger-specific, and a session serves one (initiator, trigger) pair.
func (s *Session) Collect(trigger graph.LinkID) (*CollectResult, error) {
	if s.collected != nil {
		if trigger != s.trigger {
			return nil, fmt.Errorf("%w: collected with %v, asked for %v",
				ErrTriggerMismatch, s.r.topo.G.Link(s.trigger), s.r.topo.G.Link(trigger))
		}
		return s.collected, nil
	}
	res, err := s.r.collect(s.lv, s.initiator, trigger, true)
	if err != nil {
		return nil, err
	}
	s.collected = res
	s.phase1Bytes = res.Walk.HeaderBytes()
	s.trigger = trigger
	s.pruned = nil
	s.tree = nil
	return res, nil
}

// CollectUnconstrained runs the plain right-hand rule with Constraints
// 1 and 2 disabled. It exists to reproduce the paper's Fig. 4
// demonstration that the unconstrained rule fails to enclose the
// failure area on general graphs; it is never used for recovery.
func (r *RTR) CollectUnconstrained(lv *routing.LocalView, initiator graph.NodeID, trigger graph.LinkID) (*CollectResult, error) {
	return r.collect(lv, initiator, trigger, false)
}

// hopBudget bounds the phase-1 walk; exceeding it triggers the
// truncation return, standing in for a packet TTL. A cycle around the
// failure area visits at most every node once, with tree branches
// traversed twice (the paper's AS7018 observation), so twice the node
// count is a generous perimeter bound — anything beyond it is
// unproductive wandering that only inflates the first-phase duration.
func (r *RTR) hopBudget() int {
	return 2*r.topo.G.NumNodes() + 8
}

// dirEdge is a directed link traversal; the walk never repeats one
// (revisiting a directed edge with the deterministic rule proves a
// permanent cycle).
type dirEdge struct {
	link graph.LinkID
	to   graph.NodeID
}

// collectScratch holds the buffers one phase-1 walk reuses across hops:
// the sweep output of sweepCandidates, the walked directed-edge set,
// and the per-link exclusion marks. Pooling them makes the per-hop cost
// of a walk allocation-free (the sweep runs at every hop, so without
// this it dominates the simulator's allocation profile).
type collectScratch struct {
	out  []graph.Halfedge
	seen map[dirEdge]bool
	// excluded[l] reports whether link l crosses some cross_link entry
	// of the walk in flight. cross_link is append-only, so a mark only
	// ever goes from false to true: recordCross sets the marks once per
	// entry, and Constraints 1-2 read one bool per link instead of
	// re-testing the whole field at every hop. touched lists the set
	// marks, so a reset costs O(touches) rather than O(E).
	excluded []bool
	touched  []graph.LinkID
}

var collectScratchPool = sync.Pool{
	New: func() any { return &collectScratch{seen: make(map[dirEdge]bool, 64)} },
}

// getCollectScratch returns a reset scratch whose marks cover numLinks
// links. A pooled scratch may last have served a world of another size:
// the old marks are cleared first, then the buffer grows if too small.
func getCollectScratch(numLinks int) *collectScratch {
	cs := collectScratchPool.Get().(*collectScratch)
	clear(cs.seen)
	for _, l := range cs.touched {
		cs.excluded[l] = false
	}
	cs.touched = cs.touched[:0]
	if len(cs.excluded) < numLinks {
		cs.excluded = make([]bool, numLinks)
	}
	return cs
}

// recordCross appends x to cross_link and marks every link crossing x
// as excluded. The marks are what any router derives from the
// cross_link field it receives, so they add nothing to the header.
func (cs *collectScratch) recordCross(ci *topology.CrossIndex, h *routing.Header, x graph.LinkID) {
	if !h.RecordCrossLink(x) {
		return
	}
	for _, y := range ci.Crossing(x) {
		if !cs.excluded[y] {
			cs.excluded[y] = true
			cs.touched = append(cs.touched, y)
		}
	}
}

// winding accumulates the signed angle the walk subtends at probe
// points placed on the initiator's failed links. A cycle that encloses
// the failure area winds ±2π around them; a cycle that closed early
// winds ~0. Conceptually this is one small fixed-size header field
// updated from purely local information at each hop (an RTR+ extension
// over the paper; see DESIGN.md).
type winding struct {
	probes []geom.Point
	sums   []float64
}

func (w *winding) add(a, b geom.Point) {
	for i, p := range w.probes {
		u := a.Sub(p)
		v := b.Sub(p)
		if u.Norm() < geom.Eps || v.Norm() < geom.Eps {
			continue // hop touches the probe; contributes nothing
		}
		w.sums[i] += math.Atan2(u.Cross(v), u.Dot(v))
	}
}

// enclosed reports whether the walk wound around any probe.
func (w *winding) enclosed() bool {
	for _, s := range w.sums {
		if math.Abs(s) >= 1.5*math.Pi {
			return true
		}
	}
	return false
}

func (r *RTR) collect(lv *routing.LocalView, initiator graph.NodeID, trigger graph.LinkID, constrained bool) (*CollectResult, error) {
	g := r.topo.G
	if !lv.NodeAlive(initiator) {
		return nil, fmt.Errorf("%w: node %d", ErrInitiatorDown, initiator)
	}
	if !g.Link(trigger).HasEndpoint(initiator) {
		return nil, fmt.Errorf("core: trigger link %v is not incident to initiator %d", g.Link(trigger), initiator)
	}
	if !lv.NeighborUnreachable(initiator, trigger) {
		return nil, fmt.Errorf("%w: link %v", ErrNotUnreachable, g.Link(trigger))
	}

	res := &CollectResult{Constrained: constrained}
	h := &res.Header
	h.Mode = routing.ModeCollect
	h.RecInit = initiator
	// Typical failure perimeters are tens of hops; one up-front
	// reservation replaces the doubling chain of per-hop appends.
	res.Walk.Reserve(32)
	res.FieldSizes = make([]FieldSizes, 0, 32)

	// Winding probes: one per unreachable link of the initiator, at
	// the link's midpoint. The failure area intersects each such link,
	// and Constraint 1 keeps the walk from crossing them, so the whole
	// segment — midpoint and the cut part alike — stays in a single
	// face of the walk polygon: winding around the midpoint equals
	// winding around the failure area itself.
	wind := &winding{}
	for _, id := range lv.UnreachableLinks(initiator) {
		wind.probes = append(wind.probes, r.topo.LinkSegment(id).Midpoint())
	}
	wind.sums = make([]float64, len(wind.probes))

	cs := getCollectScratch(g.NumLinks())
	defer collectScratchPool.Put(cs)
	if constrained {
		// Constraint 1: the walk must not cross the links between the
		// initiator and its unreachable neighbors. The initiator seeds
		// cross_link with each such link that crosses anything.
		for _, id := range lv.UnreachableLinks(initiator) {
			if len(r.ci.Crossing(id)) > 0 {
				cs.recordCross(r.ci, h, id)
			}
		}
	}

	seen := cs.seen
	forward := func(from graph.NodeID, he graph.Halfedge) {
		if constrained {
			r.protect(cs, h, he.Link)
		}
		seen[dirEdge{he.Link, he.Neighbor}] = true
		wind.add(r.topo.Coord(from), r.topo.Coord(he.Neighbor))
		res.Walk.Append(routing.HopRecord{From: from, To: he.Neighbor, Link: he.Link, HeaderBytes: h.RecordingBytes()})
		res.FieldSizes = append(res.FieldSizes, FieldSizes{Failed: len(h.FailedLinks), Cross: len(h.CrossLinks)})
	}

	cands, err := r.sweepCandidates(cs, lv, initiator, trigger, h, constrained, false)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: node %d", ErrNoLiveNeighbor, initiator)
	}
	first := cands[0]
	res.FirstHop = first.Neighbor
	forward(initiator, first)

	budget := r.hopBudget()
	// Productivity cutoff: a walk that has recorded nothing new for a
	// full node-count's worth of hops is circling live regions, not
	// the failure perimeter; send it home instead of burning delay
	// (implementable as a hops-since-last-record counter in the
	// header).
	stale := g.NumNodes()
	lastProgress := 0
	lastSize := len(h.FailedLinks) + len(h.CrossLinks)
	cur := first.Neighbor
	in := first // halfedge we arrived over, viewed from the previous node

	for res.Walk.Hops() < budget {
		if size := len(h.FailedLinks) + len(h.CrossLinks); size > lastSize {
			lastSize = size
			lastProgress = res.Walk.Hops()
		}
		if res.Walk.Hops()-lastProgress > stale && cur != initiator {
			r.returnToInitiator(res, cur)
			res.Enclosed = wind.enclosed()
			return res, nil
		}
		if cur == initiator {
			// Rule 3: the initiator selects a next hop from the
			// incoming link; if the sweep selects the first hop again
			// the cycle is closed. The paper terminates there; the
			// enclosure-verified mode additionally requires the cycle
			// to have wound around the failure, otherwise it keeps
			// exploring (the early-closing cycle demonstrably missed
			// the area). Either way, running out of fresh directed
			// edges at home ends the phase.
			cands, err := r.sweepCandidates(cs, lv, cur, in.Link, h, constrained, true)
			if err != nil {
				return nil, err
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("core: initiator %d cannot select a continuation hop", initiator)
			}
			closed := cands[0].Neighbor == res.FirstHop
			if closed && (r.paperTermination || wind.enclosed()) {
				res.Enclosed = wind.enclosed()
				return res, nil
			}
			next, fresh := pickFresh(cands, seen, res)
			if !fresh {
				res.Enclosed = wind.enclosed()
				return res, nil // home, nothing new to explore
			}
			forward(cur, next)
			in = next
			cur = next.Neighbor
			continue
		}

		// Rule 2: record this node's failed links, except those whose
		// far end is the initiator (the initiator already knows them).
		recordUnreachable(lv, g, cur, h)

		cands, err := r.sweepCandidates(cs, lv, cur, in.Link, h, constrained, true)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			// Cannot happen: the link we arrived over is always a
			// valid candidate (allowIncoming keeps it admissible).
			return nil, fmt.Errorf("core: node %d has no admissible next hop", cur)
		}
		next, fresh := pickFresh(cands, seen, res)
		if !fresh {
			// All candidates lead onto already-walked directed edges:
			// TTL stand-in, send the packet home.
			r.returnToInitiator(res, cur)
			res.Enclosed = wind.enclosed()
			return res, nil
		}
		forward(cur, next)
		in = next
		cur = next.Neighbor
	}

	// Hop budget exhausted (TTL expiry): send the packet home.
	r.returnToInitiator(res, cur)
	res.Enclosed = wind.enclosed()
	return res, nil
}

// recordUnreachable applies the paper's Rule 2 recording at node v. It
// scans the adjacency directly (same order as lv.UnreachableLinks)
// rather than materialising the link slice — this runs at every hop.
func recordUnreachable(lv *routing.LocalView, g *graph.Graph, v graph.NodeID, h *routing.Header) {
	for _, he := range g.Adj(v) {
		if !lv.NeighborUnreachable(v, he.Link) {
			continue
		}
		if he.Neighbor == h.RecInit {
			continue
		}
		h.RecordFailedLink(he.Link)
	}
}

// pickFresh returns the first candidate (in sweep order) whose
// directed edge has not been walked; fresh=false returns the sweep's
// first choice. Skipping candidates is counted as escapes.
func pickFresh(cands []graph.Halfedge, seen map[dirEdge]bool, res *CollectResult) (graph.Halfedge, bool) {
	for i, c := range cands {
		if !seen[dirEdge{c.Link, c.Neighbor}] {
			res.Escapes += i
			return c, true
		}
	}
	return cands[0], false
}

// protect applies the Constraint 2 insertion rule to the selected
// link: if some link crossing it is not yet excluded by cross_link,
// the selected link joins cross_link so the walk cannot cross itself
// here later.
func (r *RTR) protect(cs *collectScratch, h *routing.Header, sel graph.LinkID) {
	for _, x := range r.ci.Crossing(sel) {
		if !cs.excluded[x] {
			cs.recordCross(r.ci, h, sel)
			return
		}
	}
}

// sweepCandidates implements the right-hand rule of Section III-B/C:
// at node v, take link ref (the incoming link, or the link toward the
// unreachable default next hop for the initiator's first selection) as
// the sweeping line and rotate it counterclockwise; live neighbors
// whose links are not excluded by cross_link are returned in sweep
// order. The reference link itself sorts last (a full turn). Two
// admissibility amendments keep the walk able to finish (see
// DESIGN.md): the incoming link stays admissible even if excluded
// (allowIncoming — the walk can always backtrack), and live links
// incident to the recovery initiator are never excluded — they are
// where the walk must terminate, and every node can check incidence
// locally from rec_init in the header.
// The sweep order itself is static, so it is read from v's row for ref
// in the router's sweep table and only filtered here.
// The returned slice is backed by cs and valid until the next call.
func (r *RTR) sweepCandidates(cs *collectScratch, lv *routing.LocalView, v graph.NodeID, ref graph.LinkID, h *routing.Header, constrained, allowIncoming bool) ([]graph.Halfedge, error) {
	g := r.topo.G
	order, err := r.sweepRows(v)
	if err != nil {
		return nil, err
	}
	adj := g.Adj(v)
	d := len(adj)
	i := 0
	for adj[i].Link != ref {
		i++
	}
	out := cs.out[:0]
	for _, k := range order[i*d : (i+1)*d] {
		he := adj[k]
		if lv.NeighborUnreachable(v, he.Link) {
			continue
		}
		if constrained && cs.excluded[he.Link] {
			homeLink := g.Link(he.Link).HasEndpoint(h.RecInit)
			if !homeLink && !(allowIncoming && he.Link == ref) {
				continue
			}
		}
		out = append(out, he)
	}
	cs.out = out
	return out, nil
}

// sweepTable is one node's phase-1 sweep order from every incoming
// link. With d = Degree(v), order[i*d:(i+1)*d] lists the indices into
// Adj(v) in the order a counterclockwise sweep starting at link
// Adj(v)[i] meets them.
type sweepTable struct {
	once  sync.Once
	order []uint16
}

// sweepRows returns node v's sweep table, building it on the first
// call — the first walk that visits v. The order depends only on the
// coordinates every router holds, so one table serves every walk. A
// node with more links than a uint16 indexes is an error.
func (r *RTR) sweepRows(v graph.NodeID) ([]uint16, error) {
	if d := r.topo.G.Degree(v); d > math.MaxUint16 {
		return nil, fmt.Errorf("core: node %d has degree %d, more than a sweep table indexes (%d)", v, d, math.MaxUint16)
	}
	t := &r.sweep[v]
	t.once.Do(func() { t.order = buildSweepRows(r.topo, v) })
	return t.order, nil
}

// buildSweepRows sorts Adj(v) once per sweeping line: by
// geom.CCWAngle from the line, collinear neighbors nearer-first, and
// stably, so that exact ties (parallel links) keep adjacency order.
// Filtering a stably sorted row gives the stable sort of the filtered
// list, so the walk sees the order a per-hop sort of its admissible
// candidates would produce.
func buildSweepRows(topo *topology.Topology, v graph.NodeID) []uint16 {
	adj := topo.G.Adj(v)
	d := len(adj)
	origin := topo.Coord(v)
	angle := make([]float64, d)
	dist2 := make([]float64, d)
	for j, he := range adj {
		dist2[j] = origin.Dist2(topo.Coord(he.Neighbor))
	}
	order := make([]uint16, d*d)
	for i, ref := range adj {
		base := topo.Coord(ref.Neighbor).Sub(origin)
		row := order[i*d : (i+1)*d]
		for j, he := range adj {
			angle[j] = geom.CCWAngle(base, topo.Coord(he.Neighbor).Sub(origin))
			row[j] = uint16(j)
		}
		slices.SortStableFunc(row, func(a, b uint16) int {
			if c := cmp.Compare(angle[a], angle[b]); c != 0 {
				return c
			}
			return cmp.Compare(dist2[a], dist2[b])
		})
	}
	return order
}

// returnToInitiator handles a truncated walk: the packet retraces the
// walk backwards to the recovery initiator. Every reversed link was
// just traversed, so the return is guaranteed to succeed; routers only
// need one soft-state entry (previous hop of the active collection
// packet, keyed by rec_init) — the same class of transient state as
// the paper's recovery-path caches. The return at most doubles the
// walk length, bounding the first-phase duration.
func (r *RTR) returnToInitiator(res *CollectResult, cur graph.NodeID) {
	res.Truncated = true
	h := &res.Header
	bytes := h.RecordingBytes()
	fs := FieldSizes{Failed: len(h.FailedLinks), Cross: len(h.CrossLinks)}
	if cur == h.RecInit {
		return
	}
	forward := res.Walk.Records
	for i := len(forward) - 1; i >= 0; i-- {
		rec := forward[i]
		res.Walk.Append(routing.HopRecord{From: rec.To, To: rec.From, Link: rec.Link, HeaderBytes: bytes})
		res.FieldSizes = append(res.FieldSizes, fs)
		if rec.From == h.RecInit {
			return
		}
	}
}
