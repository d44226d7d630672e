package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// refCollect is phase 1 as the paper states Constraints 1-2: every
// hop re-tests the header's cross_link field through the pairwise
// CrossIndex.Cross query, with no per-walk state beyond the header. It
// is the reference the exclusion marks of collect must reproduce byte
// for byte.
func refCollect(r *RTR, lv *routing.LocalView, initiator graph.NodeID, trigger graph.LinkID, constrained bool) (*CollectResult, error) {
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
	res.Walk.Reserve(32)
	res.FieldSizes = make([]FieldSizes, 0, 32)

	wind := &winding{}
	for _, id := range lv.UnreachableLinks(initiator) {
		wind.probes = append(wind.probes, r.topo.LinkSegment(id).Midpoint())
	}
	wind.sums = make([]float64, len(wind.probes))

	if constrained {
		for _, id := range lv.UnreachableLinks(initiator) {
			if len(r.ci.Crossing(id)) > 0 {
				h.RecordCrossLink(id)
			}
		}
	}

	seen := map[dirEdge]bool{}
	forward := func(from graph.NodeID, he graph.Halfedge) {
		if constrained && refWouldProtect(r, h, he.Link) {
			h.RecordCrossLink(he.Link)
		}
		seen[dirEdge{he.Link, he.Neighbor}] = true
		wind.add(r.topo.Coord(from), r.topo.Coord(he.Neighbor))
		res.Walk.Append(routing.HopRecord{From: from, To: he.Neighbor, Link: he.Link, HeaderBytes: h.RecordingBytes()})
		res.FieldSizes = append(res.FieldSizes, FieldSizes{Failed: len(h.FailedLinks), Cross: len(h.CrossLinks)})
	}

	cands := refSweepCandidates(r, lv, initiator, trigger, h, constrained, false)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: node %d", ErrNoLiveNeighbor, initiator)
	}
	first := cands[0]
	res.FirstHop = first.Neighbor
	forward(initiator, first)

	budget := r.hopBudget()
	stale := g.NumNodes()
	lastProgress := 0
	lastSize := len(h.FailedLinks) + len(h.CrossLinks)
	cur := first.Neighbor
	in := first
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
			cands := refSweepCandidates(r, lv, cur, in.Link, h, constrained, true)
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
				return res, nil
			}
			forward(cur, next)
			in = next
			cur = next.Neighbor
			continue
		}
		recordUnreachable(lv, g, cur, h)
		cands := refSweepCandidates(r, lv, cur, in.Link, h, constrained, true)
		if len(cands) == 0 {
			return nil, fmt.Errorf("core: node %d has no admissible next hop", cur)
		}
		next, fresh := pickFresh(cands, seen, res)
		if !fresh {
			r.returnToInitiator(res, cur)
			res.Enclosed = wind.enclosed()
			return res, nil
		}
		forward(cur, next)
		in = next
		cur = next.Neighbor
	}
	r.returnToInitiator(res, cur)
	res.Enclosed = wind.enclosed()
	return res, nil
}

// refWouldProtect is Constraint 2's insertion test asked of the header:
// does some link crossing sel cross no cross_link entry yet?
func refWouldProtect(r *RTR, h *routing.Header, sel graph.LinkID) bool {
	for _, x := range r.ci.Crossing(sel) {
		if !r.ci.CrossesAny(x, h.CrossLinks) {
			return true
		}
	}
	return false
}

// sweepCand is one admissible neighbor with its sweep-order keys.
type sweepCand struct {
	he    graph.Halfedge
	angle float64
	dist2 float64
}

// refSweepCandidates is sweepCandidates without the sweep table: the
// candidate filter is asked of the header through CrossesAny, and the
// admissible candidates are scored and insertion-sorted by
// geom.SweepOrder's keys at every call.
func refSweepCandidates(r *RTR, lv *routing.LocalView, v graph.NodeID, ref graph.LinkID, h *routing.Header, constrained, allowIncoming bool) []graph.Halfedge {
	g := r.topo.G
	origin := r.topo.Coord(v)
	base := r.topo.Coord(g.Link(ref).Other(v)).Sub(origin)
	var cands []sweepCand
	for _, he := range g.Adj(v) {
		if lv.NeighborUnreachable(v, he.Link) {
			continue
		}
		if constrained && r.ci.CrossesAny(he.Link, h.CrossLinks) {
			homeLink := g.Link(he.Link).HasEndpoint(h.RecInit)
			if !homeLink && !(allowIncoming && he.Link == ref) {
				continue
			}
		}
		pos := r.topo.Coord(he.Neighbor)
		cands = append(cands, sweepCand{he, geom.CCWAngle(base, pos.Sub(origin)), origin.Dist2(pos)})
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := &cands[j-1], &cands[j]
			if b.angle < a.angle || (b.angle == a.angle && b.dist2 < a.dist2) {
				cands[j-1], cands[j] = cands[j], cands[j-1]
			} else {
				break
			}
		}
	}
	out := make([]graph.Halfedge, len(cands))
	for i, c := range cands {
		out[i] = c.he
	}
	return out
}

// walkCase is one phase-1 start: a live initiator and one of its
// links toward an unreachable neighbor.
type walkCase struct {
	name      string
	r         *RTR
	lv        *routing.LocalView
	initiator graph.NodeID
	trigger   graph.LinkID
}

// walkCases draws disk failures of radius [minR, maxR] on topo and
// keeps up to perScenario phase-1 starts from each, n in all.
func walkCases(topo *topology.Topology, rng *rand.Rand, minR, maxR float64, n, perScenario int) []walkCase {
	r := New(topo, nil)
	var out []walkCase
	for len(out) < n {
		lv := routing.NewLocalView(topo, failure.NewScenario(topo, failure.RandomArea(rng, minR, maxR)))
		taken := 0
		for v := 0; v < topo.G.NumNodes() && taken < perScenario && len(out) < n; v++ {
			init := graph.NodeID(v)
			if !lv.NodeAlive(init) {
				continue
			}
			if links := lv.UnreachableLinks(init); len(links) > 0 {
				out = append(out, walkCase{topo.Name, r, lv, init, links[rng.Intn(len(links))]})
				taken++
			}
		}
	}
	return out
}

// diffWalk runs one start through collect and refCollect, constrained
// and unconstrained, and describes the first disagreement ("" if none).
func diffWalk(c walkCase) string {
	for _, constrained := range []bool{true, false} {
		got, gotErr := c.r.collect(c.lv, c.initiator, c.trigger, constrained)
		want, wantErr := refCollect(c.r, c.lv, c.initiator, c.trigger, constrained)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("%s: initiator %d trigger %d constrained=%v: err %v, reference %v",
				c.name, c.initiator, c.trigger, constrained, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("%s: initiator %d trigger %d constrained=%v:\n got %d hops, cross_link %v, failed_link %v\nwant %d hops, cross_link %v, failed_link %v",
				c.name, c.initiator, c.trigger, constrained,
				got.Walk.Hops(), got.Header.CrossLinks, got.Header.FailedLinks,
				want.Walk.Hops(), want.Header.CrossLinks, want.Header.FailedLinks)
		}
	}
	return ""
}

// TestExclusionMarksMatchReference pins phase 1's per-walk exclusion
// marks to the header-only reference: identical walk records, header
// fields, FieldSizes, first hop, escapes, truncation and enclosure, on
// every Table II map and a 4096-node tiered world. Worlds interleave
// through the one scratch pool, large E then small then large, and
// finally eight goroutines walk both sizes at once, so a scratch last
// used on another world must come back fully reset.
func TestExclusionMarksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tiered, err := topology.Generate(topology.GenParams{Name: "t4k", Nodes: 4096, Links: 3 * 4096, Tiers: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	large := walkCases(tiered, rng, 50, 150, 24, 3)
	var small []walkCase
	for _, name := range topology.ASNames() {
		small = append(small, walkCases(topology.GenerateAS(name, 3), rng, failure.MinRadius, failure.MaxRadius, 40, 4)...)
	}

	run := func(cases []walkCase) {
		t.Helper()
		for _, c := range cases {
			if d := diffWalk(c); d != "" {
				t.Fatal(d)
			}
		}
	}
	run(large[:12])
	run(small)
	run(large[12:])

	all := append(append([]walkCase(nil), large...), small...)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += 8 {
				if d := diffWalk(all[i]); d != "" {
					t.Error(d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCollectScratchResetAcrossSizes: a scratch handed out after a walk
// on a larger world carries no mark from it, and covers the new world.
func TestCollectScratchResetAcrossSizes(t *testing.T) {
	topo := topology.GenerateAS("AS3549", 1)
	ci := topology.BuildCrossIndex(topo)
	cs := getCollectScratch(topo.G.NumLinks())
	var h routing.Header
	for l := 0; l < topo.G.NumLinks(); l++ {
		cs.recordCross(ci, &h, graph.LinkID(l))
	}
	if len(cs.touched) == 0 {
		t.Fatal("marking every link excluded nothing")
	}
	collectScratchPool.Put(cs)
	for _, n := range []int{8, topo.G.NumLinks(), 4 * topo.G.NumLinks()} {
		cs := getCollectScratch(n)
		if len(cs.excluded) < n || len(cs.touched) != 0 {
			t.Fatalf("size %d: %d marks, %d touched", n, len(cs.excluded), len(cs.touched))
		}
		for l, x := range cs.excluded {
			if x {
				t.Fatalf("size %d: link %d still excluded", n, l)
			}
		}
		collectScratchPool.Put(cs)
	}
}
