package sim

import (
	"reflect"
	"testing"
)

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
		if tr.rtr, err = p.RTR(); err != nil {
			t.Fatalf("RTR: %v", err)
		}
		if tr.fcp, err = p.FCP(); err != nil {
			t.Fatalf("FCP: %v", err)
		}
		if tr.mrc, err = p.MRC(); err != nil {
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
