package fcp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

func paperWorld(t *testing.T) (*topology.Topology, *FCP, *routing.LocalView) {
	t.Helper()
	topo := topology.PaperExample()
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	return topo, New(topo), routing.NewLocalView(topo, sc)
}

func TestRecoverPaperExample(t *testing.T) {
	topo, f, lv := paperWorld(t)
	res, err := f.Recover(lv, topology.PaperNode(6), topology.PaperNode(17))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("FCP must deliver v6 -> v17; dropped at v%d", res.DropAt+1)
	}
	if res.SPCalcs < 1 {
		t.Errorf("SPCalcs = %d, want >= 1", res.SPCalcs)
	}
	// The trajectory must end at the destination over live links only.
	nodes := res.Walk.Nodes()
	if nodes[0] != topology.PaperNode(6) || nodes[len(nodes)-1] != topology.PaperNode(17) {
		t.Errorf("trajectory endpoints wrong: %v", nodes)
	}
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	for _, rec := range res.Walk.Records {
		if sc.LinkDown(rec.Link) {
			t.Errorf("FCP traversed failed link %v", topo.G.Link(rec.Link))
		}
	}
}

func TestRecoverIrrecoverable(t *testing.T) {
	_, f, lv := paperWorld(t)
	// v10 is inside the failure area: FCP keeps trying, then drops.
	res, err := f.Recover(lv, topology.PaperNode(6), topology.PaperNode(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("cannot deliver to a failed node")
	}
	if res.SPCalcs < 1 {
		t.Errorf("SPCalcs = %d, want >= 1 (FCP computes before giving up)", res.SPCalcs)
	}
}

func TestRecoverInitiatorDown(t *testing.T) {
	_, f, lv := paperWorld(t)
	if _, err := f.Recover(lv, topology.PaperNode(10), topology.PaperNode(1)); err == nil {
		t.Error("recovery at a failed node must error")
	}
}

func TestFCPAlwaysDeliversWhenConnected(t *testing.T) {
	// FCP's defining property (Table III: recovery rate 100%): as long
	// as the destination is reachable, iterative failure-carrying
	// recomputation gets there.
	topo := topology.GenerateAS("AS1239", 7)
	f := New(topo)
	tables := routing.ComputeTables(topo)
	rng := rand.New(rand.NewSource(99))
	n := topo.G.NumNodes()
	tried := 0
	for tried < 200 {
		sc := failure.RandomScenario(topo, rng)
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
		tried++
		res, err := f.Recover(lv, initiator, dst)
		if err != nil {
			t.Fatal(err)
		}
		reachable := topo.G.Connected(initiator, dst, sc)
		if res.Delivered != reachable {
			t.Fatalf("delivered=%v but reachable=%v (initiator %d, dst %d)", res.Delivered, reachable, initiator, dst)
		}
		if res.Delivered {
			// Stretch >= 1: the trajectory cannot beat the true optimum.
			truth := spt.Compute(topo.G, initiator, sc)
			opt, _ := truth.CostTo(dst)
			if float64(res.Walk.Hops()) < opt {
				t.Fatalf("trajectory (%d hops) beats the optimum (%v)", res.Walk.Hops(), opt)
			}
		}
	}
}

// TestRecoverWarmMatchesCold is the warm-start differential contract:
// with a clean-tree provider installed every recomputation runs as a
// delete-only incremental update, and the full Result — trajectory,
// header, SPCalcs, drop point — must be bit-identical to the cold
// full-graph Dijkstra engine on the same cases.
func TestRecoverWarmMatchesCold(t *testing.T) {
	topo := topology.GenerateAS("AS1239", 7)
	cold := New(topo)
	warm := New(topo)
	clean := map[graph.NodeID]*spt.Tree{}
	warm.UseCleanTrees(func(v graph.NodeID) *spt.Tree {
		tr := clean[v]
		if tr == nil {
			tr = spt.Compute(topo.G, v, graph.Nothing)
			clean[v] = tr
		}
		return tr
	})
	tables := routing.ComputeTables(topo)
	rng := rand.New(rand.NewSource(31))
	n := topo.G.NumNodes()
	tried := 0
	for tried < 200 {
		sc := failure.RandomScenario(topo, rng)
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
		tried++
		rc, err := cold.Recover(lv, initiator, dst)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := warm.Recover(lv, initiator, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rc, rw) {
			t.Fatalf("warm result diverges from cold (initiator %d, dst %d):\n  cold: %+v\n  warm: %+v",
				initiator, dst, rc, rw)
		}
	}
}

// TestMemoKeysOnCarriedSet: one router recovering under two carried
// sets must get two trees. v6 first carries {l1} under one failure and
// {l2} under the other; a memo keyed by the router alone would hand the
// second failure a tree that routes over its dead link.
func TestMemoKeysOnCarriedSet(t *testing.T) {
	topo := topology.PaperExample()
	f := New(topo)
	clean := map[graph.NodeID]*spt.Tree{}
	f.UseCleanTrees(func(v graph.NodeID) *spt.Tree {
		if clean[v] == nil {
			clean[v] = spt.Compute(topo.G, v, graph.Nothing)
		}
		return clean[v]
	})
	v := topology.PaperNode(6)
	adj := topo.G.Adj(v)
	views := []*routing.LocalView{
		routing.NewLocalView(topo, failure.NewLinkSet(topo, adj[0].Link)),
		routing.NewLocalView(topo, failure.NewLinkSet(topo, adj[1].Link)),
	}
	var shared Memo
	own := make([]Memo, len(views))
	for i, lv := range views {
		for d := 0; d < topo.G.NumNodes(); d++ {
			dst := graph.NodeID(d)
			if dst == v {
				continue
			}
			want, wantErr := f.Recover(lv, v, dst)
			got, err := f.RecoverWith(&shared, lv, v, dst)
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
				t.Fatalf("failure %d, dst %d: shared memo gives %+v (%v), want %+v (%v)", i, dst, got, err, want, wantErr)
			}
			f.RecoverWith(&own[i], lv, v, dst)
		}
	}
	if own[0].Len() == 0 || shared.Len() != own[0].Len()+own[1].Len() {
		t.Fatalf("shared memo holds %d trees, want %d + %d", shared.Len(), own[0].Len(), own[1].Len())
	}
}

func TestHeaderBytesGrow(t *testing.T) {
	// Header bytes on later hops reflect accumulated failures and the
	// current source route.
	_, f, lv := paperWorld(t)
	res, err := f.Recover(lv, topology.PaperNode(6), topology.PaperNode(17))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Walk.Records {
		if rec.HeaderBytes < 2*len(res.Header.FailedLinks[:1]) {
			t.Errorf("hop header bytes %d implausibly small", rec.HeaderBytes)
		}
	}
	if res.Header.RecordingBytes() == 0 {
		t.Error("final header must record something")
	}
}
