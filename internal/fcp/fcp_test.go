package fcp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// newFCP builds an engine on topo whose clean-tree provider serves
// every node's pre-failure forward SPT, computed up front.
func newFCP(topo *topology.Topology) *FCP {
	clean := make([]*spt.Tree, topo.G.NumNodes())
	for v := range clean {
		clean[v] = spt.Compute(topo.G, graph.NodeID(v), graph.Nothing)
	}
	return New(topo, func(v graph.NodeID) *spt.Tree { return clean[v] })
}

func paperWorld(t *testing.T) (*topology.Topology, *FCP, *routing.LocalView) {
	t.Helper()
	topo := topology.PaperExample()
	sc := failure.NewScenario(topo, topology.PaperFailureArea())
	return topo, newFCP(topo), routing.NewLocalView(topo, sc)
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
	f := newFCP(topo)
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

// TestMemoKeysOnCarriedSet: one router recovering under two carried
// sets must get two trees. v6 first carries {l1} under one failure and
// {l2} under the other; a memo keyed by the router alone would hand the
// second failure a tree that routes over its dead link.
func TestMemoKeysOnCarriedSet(t *testing.T) {
	topo := topology.PaperExample()
	f := newFCP(topo)
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

// TestMemoKeyIgnoresDiscoveryOrder: route keeps the carried set sorted
// by inserting each newly carried link, so two recoveries at one router
// that come to carry the same links in different orders build the same
// key, and the second reads the first's tree instead of adding one.
func TestMemoKeyIgnoresDiscoveryOrder(t *testing.T) {
	topo := topology.PaperExample()
	f := newFCP(topo)
	v, dst := topology.PaperNode(6), topology.PaperNode(17)
	ids := []graph.LinkID{3, 9, 14}
	want := binary.LittleEndian.AppendUint32(nil, uint32(v))
	for _, id := range ids {
		want = binary.LittleEndian.AppendUint32(want, uint32(id))
	}
	ws := spt.GetWorkspace()
	defer ws.Release()
	var memo Memo
	for r, order := range [][]graph.LinkID{{9, 14, 3}, {14, 3, 9}} {
		sc := getScratch(topo.G)
		for i := range order {
			sc.failed = order[:i+1]
			f.route(&memo, sc, ws, v, dst)
		}
		if !bytes.Equal(sc.key, want) || !slices.Equal(sc.sorted, ids) {
			t.Errorf("recovery %d carrying %v: key %x, sorted %v; want %x, %v", r, order, sc.key, sc.sorted, want, ids)
		}
		sc.release()
	}
	// {9} {9,14} {3,9,14}, then {14} {3,14}; the second {3,9,14} hits.
	if n := memo.Len(); n != 5 {
		t.Errorf("memo holds %d trees, want 5", n)
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
