package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/spt"
)

// SinglePair freezes one recoverable test case on a world so that a
// benchmark can time a single (initiator, destination) recovery per
// operation, per protocol: RunRTR(p.W, p.C, p.Truth) and likewise.
// The frozen case depends only on the world's
// topology and the pair seed. Truth, the ground-truth post-failure
// tree, is computed once here, so per-op grading never pays for one.
type SinglePair struct {
	W     *World
	C     *Case
	Truth *spt.Tree
}

// NewSinglePair draws random failure areas from the pair seed until one
// yields a recoverable case and freezes that scenario's first case.
func NewSinglePair(w *World, seed int64) (*SinglePair, error) {
	rng := rand.New(rand.NewSource(seed))
	for draws := 0; draws < MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, _ := CasesFromScenario(w, sc)
		if len(rec) == 0 {
			continue
		}
		c := rec[0]
		return &SinglePair{
			W:     w,
			C:     c,
			Truth: spt.Compute(w.Topo.G, c.Initiator, c.Scenario),
		}, nil
	}
	return nil, fmt.Errorf("sim: no recoverable case on %s after %d draws", w.Topo.Name, MaxCollectDraws)
}

// TestSinglePair checks the frozen-pair harness itself: the case is
// recoverable, every protocol runs clean, RTR recovers it, and the
// frozen case and its per-op results depend only on the topology and
// the pair seed (two independently built worlds agree).
func TestSinglePair(t *testing.T) {
	const as = "AS1239"
	type triple struct {
		rtr RTRResult
		fcp FCPResult
		mrc MRCResult
	}
	var base *triple
	for run := 0; run < 2; run++ {
		w, err := NewWorld(as, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSinglePair(w, 13)
		if err != nil {
			t.Fatal(err)
		}
		if !p.C.Recoverable {
			t.Fatal("frozen case not recoverable")
		}
		var tr triple
		if tr.rtr, err = RunRTR(p.W, p.C, p.Truth); err != nil {
			t.Fatalf("RTR: %v", err)
		}
		if tr.fcp, err = RunFCP(p.W, p.C, p.Truth); err != nil {
			t.Fatalf("FCP: %v", err)
		}
		if tr.mrc, err = RunMRC(p.W, p.C, p.Truth); err != nil {
			t.Fatalf("MRC: %v", err)
		}
		if !tr.rtr.Recovered {
			t.Error("RTR did not recover the recoverable frozen case")
		}
		if base == nil {
			base = &tr
			continue
		}
		if !reflect.DeepEqual(tr, *base) {
			t.Errorf("single-pair results differ across rebuilt worlds:\n%+v\nvs\n%+v", *base, tr)
		}
	}
}

// BenchmarkSinglePairRecovery measures one full single-pair recovery
// per op — fresh session, collection, phase-2 route, forwarding,
// grading — for each protocol on the two largest Table II topologies.
func BenchmarkSinglePairRecovery(b *testing.B) {
	for _, as := range []string{"AS7018", "AS3549"} {
		w, err := NewWorld(as, 1)
		if err != nil {
			b.Fatal(err)
		}
		p, err := NewSinglePair(w, 13)
		if err != nil {
			b.Fatal(err)
		}
		for _, proto := range []struct {
			name string
			run  func() error
		}{
			{"rtr", func() error { _, err := RunRTR(p.W, p.C, p.Truth); return err }},
			{"fcp", func() error { _, err := RunFCP(p.W, p.C, p.Truth); return err }},
			{"mrc", func() error { _, err := RunMRC(p.W, p.C, p.Truth); return err }},
		} {
			b.Run(as+"/"+proto.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := proto.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
