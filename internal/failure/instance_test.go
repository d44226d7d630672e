package failure

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// TestCanonicalSpellings pins what the fingerprint canonicalises
// (blanks, number spelling, link order and duplicates, the position of
// the links term) and what it keeps (the order of the areas).
func TestCanonicalSpellings(t *testing.T) {
	const numLinks = 100
	for _, c := range []struct{ in, want string }{
		{"none", "none"},
		{"  none\n", "none"},
		{"disk(100,200,50)", "disk(100,200,50)"},
		{" disk( 100.0 , 2e2,\t50.00 ) ", "disk(100,200,50)"},
		{"disk(0x1p4,+1,1e21)", "disk(16,1,1e+21)"},
		{"disk(-0,0,-0)", "disk(-0,0,-0)"},
		{"cut(1,2,3,4,5.50)", "cut(1,2,3,4,5.5)"},
		{"links(17, 3,17,+3)", "links(3,17)"},
		{"links(9);disk(1,2,3);links(4,9)", "disk(1,2,3);links(4,9)"},
		{"disk(1,2,3); disk(0,0,1)", "disk(1,2,3);disk(0,0,1)"},
		{"disk(0,0,1);disk(1,2,3)", "disk(0,0,1);disk(1,2,3)"},
		{"cut(0,0,1,1,2);disk(1,2,3)", "cut(0,0,1,1,2);disk(1,2,3)"},
	} {
		got, err := Canonical(c.in, numLinks)
		if err != nil {
			t.Errorf("Canonical(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestInstanceRejected: descriptors that are not failures fail closed,
// in both stages alike.
func TestInstanceRejected(t *testing.T) {
	topo := testTopo(t)
	tooMany := strings.Repeat("disk(1,2,3);", MaxInstanceTerms) + "disk(1,2,3)"
	for _, d := range []string{
		"", " ", "garbage(1", "disk", "(1,2,3)", "disk()", "disk (1,2,3)", "disk(1,2,3);",
		"none;none", "disk(1,2)", "disk(1,2,3,4)", "cut(1,2,3)", "disk(1,,3)", "blob(1,2,3)",
		"disk(NaN,1,1)", "disk(1,Inf,1)", "disk(1,1,-Inf)", "disk(1,1,1e999)",
		"disk(1,1,-5)", "cut(0,0,1,1,-0.5)",
		"links(-1)", "links(999999)", "links(1.5)", "links(1,)",
		tooMany,
	} {
		if fp, err := Canonical(d, topo.G.NumLinks()); err == nil {
			t.Errorf("Canonical accepted %.40q as %.40q", d, fp)
		}
		if _, err := ParseInstance(topo, d); err == nil {
			t.Errorf("ParseInstance accepted %.40q", d)
		}
	}
	atLimit := strings.TrimSuffix(strings.Repeat("disk(1,2,3);", MaxInstanceTerms), ";")
	if _, err := Canonical(atLimit, topo.G.NumLinks()); err != nil {
		t.Errorf("%d terms rejected: %v", MaxInstanceTerms, err)
	}
}

// TestDescKeepsExplicitLinks: an instance mixing areas and explicit
// links used to fingerprint as its areas alone, so two different
// failures shared one cache key.
func TestDescKeepsExplicitLinks(t *testing.T) {
	topo := testTopo(t)
	disk := geom.Disk{Center: geom.Point{X: 1000, Y: 1000}, Radius: 150}
	alone := NewScenario(topo, disk)
	var spare graph.LinkID
	for alone.LinkDown(spare) {
		spare++
	}
	desc := fmt.Sprintf("%s;links(%d)", alone.Desc(), spare)
	both, err := ParseInstance(topo, desc)
	if err != nil {
		t.Fatal(err)
	}
	if both.Desc() != desc {
		t.Fatalf("Desc = %q, want %q", both.Desc(), desc)
	}
	if both.NumFailedLinks() != alone.NumFailedLinks()+1 || !both.LinkDown(spare) {
		t.Fatalf("explicit link %d not failed: %d links down, disk alone %d",
			spare, both.NumFailedLinks(), alone.NumFailedLinks())
	}
	re, err := ParseInstance(topo, both.Desc())
	if err != nil {
		t.Fatal(err)
	}
	if !sameMask(both, re) {
		t.Fatalf("round trip of %q changed the mask", desc)
	}
}

// TestCanonicalSpellsNumbersAsDesc: the fingerprint's float spelling is
// the %g every generated descriptor, golden and checkpoint already
// carries, and working it out builds nothing: the string and, for a
// descriptor past Canonical's stack buffer, the buffer.
func TestCanonicalSpellsNumbersAsDesc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		r := math.Abs(x)
		want := fmt.Sprintf("disk(%g,%g,%g)", x, -x, r)
		got, err := Canonical(fmt.Sprintf("disk( %v, %v, %v )", x, -x, r), 1)
		if err != nil || got != want {
			t.Fatalf("Canonical = %q, %v; want %q", got, err, want)
		}
	}
	desc := "disk(1234.5678901234, 987.65432109876, 123.456789012345); cut(1.5, 2.5, 3.5, 4.5, 0.25)"
	if n := testing.AllocsPerRun(100, func() { sink, _ = Canonical(desc, 1) }); n > 2 {
		t.Errorf("Canonical allocates %v times, want <= 2", n)
	}
}

var sink string
