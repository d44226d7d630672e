package converged

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fcp"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

type world struct {
	topo *topology.Topology
	pre  *routing.Tables
	rtr  *core.RTR
}

func newWorld(as string) world {
	topo := topology.GenerateAS(as, 5)
	return world{topo, routing.ComputeTables(topo), core.New(topo, nil)}
}

func (w world) state(sc *failure.Scenario) *State { return New(w.topo, w.pre, w.rtr, sc) }

// perimeter lists every (live node, incident link) of the scenario's
// failure boundary: the unreachable links are the triggers a session
// can legitimately open with, the reachable ones must be refused.
func perimeter(w world, sc *failure.Scenario) (pairs []sessKey) {
	lv := routing.NewLocalView(w.topo, sc)
	for v := 0; v < w.topo.G.NumNodes(); v++ {
		id := graph.NodeID(v)
		if sc.NodeDown(id) || len(lv.UnreachableLinks(id)) == 0 {
			continue
		}
		for _, h := range w.topo.G.Adj(id) {
			pairs = append(pairs, sessKey{id, h.Link})
		}
	}
	return pairs
}

// TestTruthMatchesColdCompute: on every bundled topology the warm
// truth tree is node-for-node the cold Dijkstra under the scenario,
// and so is the component classification read off it.
func TestTruthMatchesColdCompute(t *testing.T) {
	for _, as := range topology.ASNames() {
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			w := newWorld(as)
			rng := rand.New(rand.NewSource(3))
			checked := 0
			for draw := 0; draw < 4; draw++ {
				sc := failure.RandomScenario(w.topo, rng)
				st := w.state(sc)
				keys := perimeter(w, sc)
				for i, p := range keys {
					if i > 0 && p.initiator == keys[i-1].initiator {
						continue // one check per initiator
					}
					got, want := st.Truth(p.initiator), spt.Compute(w.topo.G, p.initiator, sc)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("draw %d: truth tree at %d diverges from the cold compute", draw, p.initiator)
					}
					for d := range want.Dist {
						if st.Recoverable(p.initiator, graph.NodeID(d)) != want.Reachable(graph.NodeID(d)) {
							t.Fatalf("draw %d: Recoverable(%d, %d) disagrees with the truth tree", draw, p.initiator, d)
						}
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no initiator checked")
			}
		})
	}
}

// freshSession is the reference State.Session must reproduce: open,
// collect, classify.
func freshSession(w world, sc *failure.Scenario, k sessKey) (sess *core.Session, noLive bool, err error) {
	sess, err = w.rtr.NewSession(routing.NewLocalView(w.topo, sc), k.initiator)
	if err == nil {
		_, err = sess.Collect(k.trigger)
	}
	if errors.Is(err, core.ErrNoLiveNeighbor) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	return sess, false, nil
}

// TestSessionMatchesFresh: every (initiator, trigger) of the failure
// perimeter classifies — error, cut-off initiator, prepared — exactly
// as a fresh session does, and a prepared session answers every
// destination with the fresh session's walk, routes and SPCalcs.
func TestSessionMatchesFresh(t *testing.T) {
	w := newWorld("AS1239")
	rng := rand.New(rand.NewSource(8))
	scs := []*failure.Scenario{failure.RandomScenario(w.topo, rng), failure.RandomScenario(w.topo, rng)}
	// Cutting every link of one node makes it a fully cut-off initiator.
	var cut []graph.LinkID
	for _, h := range w.topo.G.Adj(0) {
		cut = append(cut, h.Link)
	}
	scs = append(scs, failure.NewLinkSet(w.topo, cut...))

	var prepared, noLive, failed int
	for si, sc := range scs {
		st := w.state(sc)
		keys := perimeter(w, sc)
		if down := sc.FailedNodes(); len(down) > 0 {
			keys = append(keys, sessKey{down[0], w.topo.G.Adj(down[0])[0].Link})
		}
		for _, k := range keys {
			got := st.Session(k.initiator, k.trigger)
			want, wantNoLive, wantErr := freshSession(w, sc, k)
			switch {
			case wantErr != nil:
				failed++
				if got.Err == nil || got.Err.Error() != wantErr.Error() || got.NoLive || got.Sess != nil {
					t.Fatalf("scenario %d %+v: got %+v, want error %v", si, k, got, wantErr)
				}
			case wantNoLive:
				noLive++
				if !got.NoLive || got.Err != nil || got.Sess != nil {
					t.Fatalf("scenario %d %+v: got %+v, want a cut-off initiator", si, k, got)
				}
			default:
				prepared++
				if got.Sess == nil || got.Err != nil || got.NoLive {
					t.Fatalf("scenario %d %+v: got %+v, want a prepared session", si, k, got)
				}
				if !reflect.DeepEqual(got.Sess.Collected(), want.Collected()) {
					t.Fatalf("scenario %d %+v: collection differs from a fresh session's", si, k)
				}
				for d := 0; d < w.topo.G.NumNodes(); d += 7 {
					gr, gok := got.Sess.RecoveryPath(graph.NodeID(d))
					wr, wok := want.RecoveryPath(graph.NodeID(d))
					if gok != wok || !reflect.DeepEqual(gr, wr) || got.Sess.SPCalcs() != want.SPCalcs() {
						t.Fatalf("scenario %d %+v: route to %d differs from a fresh session's", si, k, d)
					}
				}
			}
		}
	}
	if prepared == 0 || noLive == 0 || failed == 0 {
		t.Fatalf("classes not all exercised: prepared %d, cut off %d, errors %d", prepared, noLive, failed)
	}
}

// fcpCases lists every recovery of the scenario: a perimeter initiator
// and a destination its converged next hop toward is unreachable.
func fcpCases(w world, sc *failure.Scenario) (cases [][2]graph.NodeID) {
	lv := routing.NewLocalView(w.topo, sc)
	keys := perimeter(w, sc)
	for i, k := range keys {
		if i > 0 && k.initiator == keys[i-1].initiator {
			continue
		}
		for d := 0; d < w.topo.G.NumNodes(); d++ {
			dst := graph.NodeID(d)
			if _, link, ok := w.pre.NextHop(k.initiator, dst); ok && dst != k.initiator && lv.NeighborUnreachable(k.initiator, link) {
				cases = append(cases, [2]graph.NodeID{k.initiator, dst})
			}
		}
	}
	return cases
}

// TestFCPTreesMatchMemoLess: on every bundled topology, every FCP
// recovery of seeded scenarios run through one State's tree memo —
// cold, then warm, then from eight goroutines on a second State —
// returns exactly the memo-less Recover's Result (walk, header,
// SPCalcs, drop site, error), and the warm pass adds no tree.
func TestFCPTreesMatchMemoLess(t *testing.T) {
	for _, as := range topology.ASNames() {
		t.Run(as, func(t *testing.T) {
			t.Parallel()
			w := newWorld(as)
			f := fcp.New(w.topo)
			f.UseCleanTrees(w.rtr.CleanTree)
			rng := rand.New(rand.NewSource(6))
			for draw := 0; draw < 2; draw++ {
				sc := failure.RandomScenario(w.topo, rng)
				cases := fcpCases(w, sc)
				if len(cases) == 0 {
					t.Fatalf("draw %d: no recovery case", draw)
				}
				want := make([]fcp.Result, len(cases))
				wantErr := make([]error, len(cases))
				for i, c := range cases {
					want[i], wantErr[i] = f.Recover(routing.NewLocalView(w.topo, sc), c[0], c[1])
				}
				same := func(st *State, i int) bool {
					got, err := f.RecoverWith(st.FCPTrees(), st.LocalView(), cases[i][0], cases[i][1])
					return reflect.DeepEqual(got, want[i]) && fmt.Sprint(err) == fmt.Sprint(wantErr[i])
				}

				st := w.state(sc)
				var trees [2]int
				for pass := range trees {
					for i := range cases {
						if !same(st, i) {
							t.Fatalf("draw %d pass %d: %v diverges from the memo-less recovery", draw, pass, cases[i])
						}
					}
					trees[pass] = st.FCPTrees().Len()
				}
				if trees[0] == 0 || trees[1] != trees[0] {
					t.Fatalf("draw %d: the memo holds %d trees cold and %d warm", draw, trees[0], trees[1])
				}

				st = w.state(sc)
				const workers = 8
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for j := range cases {
							// Each worker starts somewhere else so first computations collide.
							if i := (j + g*len(cases)/workers) % len(cases); !same(st, i) {
								t.Errorf("draw %d worker %d: %v diverges from the memo-less recovery", draw, g, cases[i])
								return
							}
						}
					}(g)
				}
				wg.Wait()
				if n := st.FCPTrees().Len(); n != trees[0] {
					t.Fatalf("draw %d: concurrent recoveries left %d trees, a serial pass %d", draw, n, trees[0])
				}
			}
		})
	}
}

// TestConcurrentUseSharesOneOfEach hammers one State from many
// goroutines (run under -race): everyone gets the pointer-identical
// tree, session and tables, and the same classification.
func TestConcurrentUseSharesOneOfEach(t *testing.T) {
	w := newWorld("AS3549")
	sc := failure.RandomScenario(w.topo, rand.New(rand.NewSource(4)))
	st := w.state(sc)
	keys := perimeter(w, sc)
	if len(keys) == 0 {
		t.Fatal("scenario has no perimeter")
	}
	const workers = 8
	type seen struct {
		truth    []*spt.Tree
		sess     []*Session
		post     *routing.Tables
		clusters int
		rec      []bool
	}
	got := make([]seen, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := &got[g]
			// Each worker starts somewhere else so first builds collide.
			for i := range keys {
				k := keys[(i+g*len(keys)/workers)%len(keys)]
				st.Truth(k.initiator)
				if se := st.Session(k.initiator, k.trigger); se.Sess != nil {
					var rt core.Route
					se.Sess.RecoveryPathInto(&rt, graph.NodeID(g))
				}
			}
			for _, k := range keys {
				s.truth = append(s.truth, st.Truth(k.initiator))
				s.sess = append(s.sess, st.Session(k.initiator, k.trigger))
				s.rec = append(s.rec, st.Recoverable(k.initiator, graph.NodeID(g)), st.Recoverable(k.initiator, 0))
			}
			s.post, s.clusters = st.Tables(), len(st.Clusters())
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		for i := range keys {
			if got[g].truth[i] != got[0].truth[i] || got[g].sess[i] != got[0].sess[i] {
				t.Fatalf("worker %d holds its own tree or session for %+v", g, keys[i])
			}
			if got[g].rec[2*i+1] != got[0].rec[2*i+1] {
				t.Fatalf("worker %d classifies %+v differently", g, keys[i])
			}
		}
		if got[g].post != got[0].post || got[g].clusters != got[0].clusters {
			t.Fatalf("worker %d holds its own tables or clusters", g)
		}
	}
}
