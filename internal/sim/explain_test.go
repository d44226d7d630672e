package sim

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/topology"
)

// TestExplainAttribution tallies Explain over RTR's misses on 1,000
// recoverable default-generator cases per Table II topology (world
// seed 1, case seed 1) and requires EXPERIMENTS.md to hold the table
// it computes, so the documented attribution of Table III's RTR gap
// cannot drift from the code.
func TestExplainAttribution(t *testing.T) {
	// Columns: misses; the walk's end state, one of truncated, not
	// enclosed, escaped (enclosed with escapes) or clean; then misses
	// whose walk visited an end of the drop link, and multi-cluster ones.
	var b strings.Builder
	b.WriteString("| topology | misses | truncated | not enclosed | escaped | clean | walk visited drop link | multi-cluster |\n")
	b.WriteString("|---|--:|--:|--:|--:|--:|--:|--:|\n")
	row := func(name string, n [7]int) {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %d |\n", name, n[0], n[1], n[2], n[3], n[4], n[5], n[6])
	}
	var total [7]int
	for _, name := range topology.ASNames() {
		w, err := NewWorld(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := CollectBothG(w, failure.Default(), rand.New(rand.NewSource(1)), 1000, 0)
		outs := RunAllN(w, rec, 1)
		var n [7]int
		for i := range outs {
			if outs[i].RTR.Recovered {
				continue
			}
			e, ok := Explain(&outs[i])
			if !ok || !e.Dropped {
				t.Fatalf("%s: a recoverable miss must be a routed drop: ok=%v %+v", name, ok, e)
			}
			n[0]++
			switch col := e.Collect; {
			case col.Truncated:
				n[1]++
			case !col.Enclosed:
				n[2]++
			case col.Escapes > 0:
				n[3]++
			default:
				n[4]++
			}
			if e.VisitedDrop {
				n[5]++
			}
			if e.Clusters > 1 {
				n[6]++
			}
		}
		row(name, n)
		for j := range n {
			total[j] += n[j]
		}
	}
	row("all", total)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), b.String()) {
		t.Errorf("EXPERIMENTS.md does not hold the attribution table; the code computes:\n%s", b.String())
	}
}
