package failure

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/seed"
	"repro/internal/topology"
)

func testTopo(t testing.TB) *topology.Topology {
	t.Helper()
	return topology.GenerateAS("AS1239", seed.Derive(42, "topo", "AS1239"))
}

// TestParseSpecRoundTrip pins the canonical-name round trip: for every
// valid spec, ParseSpec(spec).Name() is canonical and parsing the
// canonical name yields an identical generator.
func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want string // canonical name ("" = same as spec)
	}{
		{"disk", ""},
		{"disk:rmin=50,rmax=80", ""},
		{"disk:rmax=300,rmin=100", "disk"}, // defaults collapse
		{"disks", ""},
		{"disks:k=3", ""},
		{"disks:k=2", "disks"},
		{"disks:k=4,disjoint", ""},
		{"disks:disjoint,k=4", "disks:k=4,disjoint"},
		{"disks:k=3,rmin=50,rmax=120", ""},
		{"cut", ""},
		{"cut:w=200", ""},
		{"cut:w=120", "cut"},
		{"cut:lmin=100,lmax=400", ""},
		{"srlg", ""},
		{"srlg:g=25", ""},
		{"srlg:n=2", ""},
		{"srlg:g=9,n=3", ""},
		{"link", ""},
	}
	for _, c := range cases {
		g, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		want := c.want
		if want == "" {
			want = c.spec
		}
		if g.Name() != want {
			t.Errorf("ParseSpec(%q).Name() = %q, want %q", c.spec, g.Name(), want)
			continue
		}
		g2, err := ParseSpec(g.Name())
		if err != nil {
			t.Errorf("canonical name %q does not reparse: %v", g.Name(), err)
			continue
		}
		if !reflect.DeepEqual(g, g2) {
			t.Errorf("round trip of %q: %#v != %#v", c.spec, g, g2)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"frisbee",
		"disk:",
		"disk:rmin",              // flag where value required... rmin unused
		"disk:rmin=",             // no value
		"disk:=5",                // no key
		"disk:rmin=abc",          // not a number
		"disk:rmin=NaN",          // non-finite
		"disk:rmin=-5",           // negative
		"disk:rmin=0",            // zero radius
		"disk:rmin=200,rmax=100", // inverted bounds
		"disk:rmax=1e99",         // beyond the simulation area
		"disk:k=3",               // unknown key for kind
		"disk:rmin=5,rmin=6",     // duplicate
		"disks:k=0",
		"disks:k=99",
		"disks:bogus",
		"cut:w=0",
		"cut:w=-3",
		"cut:lmin=900,lmax=100",
		"srlg:g=0",
		"srlg:n=0",
		"srlg:g=4,n=9", // more groups failing than exist
		"link:x=1",
		"disk:rmin=100,,rmax=200", // empty parameter
	}
	for _, spec := range bad {
		if g, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) = %v (%q), want error", spec, g, g.Name())
		}
	}
}

// TestRetiredKindsUnknown: cascade and transient drew only the peak of
// a disk schedule, which disks:k=N draws identically; both are unknown
// kinds now, reported as such.
func TestRetiredKindsUnknown(t *testing.T) {
	for _, spec := range []string{"cascade", "transient", "cascade:steps=2,rmin=80,rmax=80"} {
		_, err := ParseSpec(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown generator kind") {
			t.Errorf("ParseSpec(%q) = %v, want the unknown-kind error", spec, err)
		}
	}
}

func TestParseSpecOrDefault(t *testing.T) {
	g, err := ParseSpecOrDefault("")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != DefaultSpec {
		t.Errorf("empty spec → %q, want %q", g.Name(), DefaultSpec)
	}
	if !reflect.DeepEqual(g, Default()) {
		t.Errorf("empty spec must yield Default()")
	}
}

// TestDiskGenBitIdentical pins the refactoring contract of the
// tentpole: the default generator consumes the RNG stream exactly as
// the legacy RandomScenario path did, producing identical masks.
func TestDiskGenBitIdentical(t *testing.T) {
	topo := testTopo(t)
	for trial := 0; trial < 50; trial++ {
		base := seed.Derive(7, "difftest", topo.Name)
		rngA := rand.New(rand.NewSource(base + int64(trial)))
		rngB := rand.New(rand.NewSource(base + int64(trial)))
		legacy := RandomScenario(topo, rngA)
		gen := Default().Generate(topo, rngB)
		if !sameMask(legacy, gen) {
			t.Fatalf("trial %d: masks differ:\nlegacy %v\ngen    %v", trial, legacy, gen)
		}
		if rngA.Int63() != rngB.Int63() {
			t.Fatalf("trial %d: RNG streams diverged — draw counts differ", trial)
		}
		da, db := legacy.Areas(), gen.Areas()
		if len(da) != 1 || len(db) != 1 || da[0] != db[0] {
			t.Fatalf("trial %d: areas differ: %v vs %v", trial, da, db)
		}
	}
}

func sameMask(a, b *Scenario) bool {
	return reflect.DeepEqual(a.FailedNodes(), b.FailedNodes()) &&
		reflect.DeepEqual(a.FailedLinks(), b.FailedLinks())
}

// TestGeneratorDeterminism: every registered generator is a pure
// function of (topology, RNG stream).
func TestGeneratorDeterminism(t *testing.T) {
	topo := testTopo(t)
	for _, g := range AllDefaults() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				s := seed.Derive(11, "det", g.Name()) + int64(trial)
				a := g.Generate(topo, rand.New(rand.NewSource(s)))
				b := g.Generate(topo, rand.New(rand.NewSource(s)))
				if !sameMask(a, b) {
					t.Fatalf("trial %d: non-deterministic: %v vs %v", trial, a, b)
				}
				if a.GenSpec() != g.Name() {
					t.Fatalf("GenSpec = %q, want %q", a.GenSpec(), g.Name())
				}
			}
		})
	}
}

// TestGeneratorMaskAreaConsistency: for every generator, the scenario
// mask is exactly what its areas/link sets imply — nodes fail iff
// inside an area, links fail iff endpoint-down, area-intersecting, or
// explicitly listed.
func TestGeneratorMaskAreaConsistency(t *testing.T) {
	topo := testTopo(t)
	for _, g := range AllDefaults() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(seed.Derive(13, "cons", g.Name()) + int64(trial)))
				checkMaskConsistent(t, g.Generate(topo, rng))
			}
		})
	}
}

func checkMaskConsistent(t *testing.T, s *Scenario) {
	t.Helper()
	topo := s.Topo
	areas := s.Shapes()
	inArea := func(v graph.NodeID) bool {
		for _, a := range areas {
			if a.Contains(topo.Coords[v]) {
				return true
			}
		}
		return false
	}
	for v := 0; v < topo.G.NumNodes(); v++ {
		id := graph.NodeID(v)
		if s.NodeDown(id) != inArea(id) {
			t.Fatalf("node %d: down=%v but inArea=%v", v, s.NodeDown(id), inArea(id))
		}
	}
	for i := 0; i < topo.G.NumLinks(); i++ {
		id := graph.LinkID(i)
		l := topo.G.Link(id)
		geometric := s.NodeDown(l.A) || s.NodeDown(l.B)
		if !geometric {
			seg := topo.LinkSegment(id)
			for _, a := range areas {
				if a.IntersectsSegment(seg) {
					geometric = true
					break
				}
			}
		}
		if geometric && !s.LinkDown(id) {
			t.Fatalf("link %v: geometry says down, mask says up", l)
		}
		if !geometric && s.LinkDown(id) && len(areas) > 0 {
			// Area-driven scenarios may not fail extra links.
			t.Fatalf("link %v: mask says down with no geometric cause", l)
		}
	}
}

// TestLinkFailsOneLink: a link failure takes down exactly one link and
// no router.
func TestLinkFailsOneLink(t *testing.T) {
	topo := testTopo(t)
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(17, "link") + int64(trial)))
		sc := LinkFlapGen{}.Generate(topo, rng)
		if sc.NumFailedLinks() != 1 || sc.NumFailedNodes() != 0 {
			t.Fatalf("trial %d: want exactly one failed link, got %v", trial, sc)
		}
	}
}

// TestMultiDiskDisjoint: with the disjoint flag, accepted disks are
// pairwise non-overlapping whenever the rejection loop can satisfy it
// (small radii on a large area virtually always can).
func TestMultiDiskDisjoint(t *testing.T) {
	topo := testTopo(t)
	g := MultiDiskGen{K: 3, Min: 50, Max: 100, Disjoint: true}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(19, "disjoint") + int64(trial)))
		sc := g.Generate(topo, rng)
		disks := sc.Areas()
		if len(disks) != 3 {
			t.Fatalf("want 3 disks, got %d", len(disks))
		}
		for i := range disks {
			for j := i + 1; j < len(disks); j++ {
				if disks[i].Center.Dist(disks[j].Center) < disks[i].Radius+disks[j].Radius {
					t.Fatalf("trial %d: disks %d and %d overlap", trial, i, j)
				}
			}
		}
	}
}

// TestSRLGGroups pins the partition properties: every link is in
// exactly one group, groups are non-empty, and the grouping is a
// deterministic function of the topology.
func TestSRLGGroups(t *testing.T) {
	topo := testTopo(t)
	groups := srlgGroups(topo, 16)
	seen := make(map[graph.LinkID]int)
	for gi, g := range groups {
		if len(g.Links) == 0 {
			t.Fatalf("group %q empty", g.Name)
		}
		if g.Name == "" {
			t.Fatal("group must be named")
		}
		for _, id := range g.Links {
			if prev, dup := seen[id]; dup {
				t.Fatalf("link %d in groups %d and %d", id, prev, gi)
			}
			seen[id] = gi
		}
	}
	if len(seen) != topo.G.NumLinks() {
		t.Fatalf("partition covers %d/%d links", len(seen), topo.G.NumLinks())
	}
	again := srlgGroups(topo, 16)
	if !reflect.DeepEqual(groups, again) {
		t.Fatal("grouping must be deterministic")
	}
	if len(srlgGroups(topo, 1)) != 1 {
		t.Fatal("target 1 must give a single group")
	}
}

// TestSRLGGenerate: scenarios fail whole groups and nothing else.
func TestSRLGGenerate(t *testing.T) {
	topo := testTopo(t)
	g := SRLGGen{Groups: 16, Fail: 2}
	groups := srlgGroups(topo, 16)
	memberOf := make(map[graph.LinkID]int)
	for gi, grp := range groups {
		for _, id := range grp.Links {
			memberOf[id] = gi
		}
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(23, "srlg") + int64(trial)))
		sc := g.Generate(topo, rng)
		if sc.NumFailedNodes() != 0 {
			t.Fatalf("SRLG failures are link-only, got %d nodes down", sc.NumFailedNodes())
		}
		hit := make(map[int]bool)
		for _, id := range sc.FailedLinks() {
			hit[memberOf[id]] = true
		}
		if len(hit) != 2 {
			t.Fatalf("trial %d: %d groups hit, want 2", trial, len(hit))
		}
		for gi := range hit { // whole-group property
			for _, id := range groups[gi].Links {
				if !sc.LinkDown(id) {
					t.Fatalf("trial %d: group %d partially failed", trial, gi)
				}
			}
		}
	}
}

// TestWithRadius pins the FixedRadius hook the Fig.-11 sweeps use.
func TestWithRadius(t *testing.T) {
	for _, g := range AllDefaults() {
		fr, ok := g.(FixedRadius)
		if !ok {
			continue // link/srlg have no radius knob
		}
		pinned := fr.WithRadius(150)
		topo := testTopo(t)
		rng := rand.New(rand.NewSource(seed.Derive(29, "radius", g.Name())))
		sc := pinned.Generate(topo, rng)
		for _, a := range sc.Shapes() {
			switch v := a.(type) {
			case interface{ RadiusOf() float64 }:
				_ = v
			}
		}
		for _, d := range sc.Areas() {
			if d.Radius != 150 {
				t.Errorf("%s: disk radius %g, want 150", g.Name(), d.Radius)
			}
		}
	}
	// Cut: radius pins the half-width.
	c := CutGen{Width: 120, MinLen: 500, MaxLen: 1500}.WithRadius(90).(CutGen)
	if c.Width != 180 {
		t.Errorf("cut WithRadius(90).Width = %g, want 180", c.Width)
	}
}

// TestClustersSingleArea: a single disk or capsule always yields at
// most one failure cluster — the shape RTR's perimeter walk assumes.
func TestClustersSingleArea(t *testing.T) {
	topo := testTopo(t)
	for _, g := range []Generator{Default(), CutGen{Width: 120, MinLen: 500, MaxLen: 1500}} {
		for trial := 0; trial < 40; trial++ {
			rng := rand.New(rand.NewSource(seed.Derive(31, "cluster", g.Name()) + int64(trial)))
			sc := g.Generate(topo, rng)
			if cs := sc.Clusters(); len(cs) > 1 {
				t.Fatalf("%s trial %d: %d clusters from a single area (%s)",
					g.Name(), trial, len(cs), sc.Desc())
			}
		}
	}
}

// TestClustersPartition: clusters partition the failed links, and
// widely separated disks land in different clusters.
func TestClustersPartition(t *testing.T) {
	topo := testTopo(t)
	for _, g := range AllDefaults() {
		for trial := 0; trial < 15; trial++ {
			rng := rand.New(rand.NewSource(seed.Derive(37, "part", g.Name()) + int64(trial)))
			sc := g.Generate(topo, rng)
			seen := make(map[graph.LinkID]bool)
			total := 0
			for _, c := range sc.Clusters() {
				if len(c) == 0 {
					t.Fatal("empty cluster")
				}
				for _, id := range c {
					if seen[id] {
						t.Fatalf("link %d in two clusters", id)
					}
					seen[id] = true
					if !sc.LinkDown(id) {
						t.Fatalf("cluster contains live link %d", id)
					}
				}
				total += len(c)
			}
			if total != sc.NumFailedLinks() {
				t.Fatalf("%s: clusters cover %d of %d failed links", g.Name(), total, sc.NumFailedLinks())
			}
		}
	}
}

// TestClustersSeparatedDisks: two far-apart disks that each fail links
// form two clusters (the overlap merge must not over-join).
func TestClustersSeparatedDisks(t *testing.T) {
	topo := testTopo(t)
	found := false
	for trial := 0; trial < 200 && !found; trial++ {
		rng := rand.New(rand.NewSource(seed.Derive(41, "sep") + int64(trial)))
		sc := MultiDiskGen{K: 2, Min: 80, Max: 120, Disjoint: true}.Generate(topo, rng)
		disks := sc.Areas()
		if len(disks) != 2 {
			continue
		}
		gap := disks[0].Center.Dist(disks[1].Center) - disks[0].Radius - disks[1].Radius
		if gap < 400 { // links could bridge nearby disks
			continue
		}
		// Both disks must actually hit links, and no failed link may
		// touch both neighborhoods for this witness to be conclusive.
		cs := sc.Clusters()
		if sc.NumFailedLinks() > 0 && len(cs) >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("no disjoint-disk witness produced two clusters in 200 trials")
	}
}

// TestParseInstanceRoundTrip: Desc() of any generated scenario rebuilds
// an identical mask.
func TestParseInstanceRoundTrip(t *testing.T) {
	topo := testTopo(t)
	for _, g := range AllDefaults() {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(seed.Derive(43, "inst", g.Name()) + int64(trial)))
			s := g.Generate(topo, rng)
			re, err := ParseInstance(topo, s.Desc())
			if err != nil {
				t.Fatalf("%s: ParseInstance(%q): %v", g.Name(), s.Desc(), err)
			}
			if !sameMask(s, re) {
				t.Fatalf("%s: round trip of %q changed the mask", g.Name(), s.Desc())
			}
		}
	}
	if _, err := ParseInstance(topo, "garbage(1"); err == nil {
		t.Fatal("malformed instance must not parse")
	}
	if _, err := ParseInstance(topo, "links(999999)"); err == nil {
		t.Fatal("out-of-range link ID must not parse")
	}
}

// TestDescShapes pins the descriptor grammar.
func TestDescShapes(t *testing.T) {
	topo := testTopo(t)
	if got := compose(topo, nil, nil).Desc(); got != "none" {
		t.Errorf("empty scenario Desc = %q, want none", got)
	}
	s := NewLinkSet(topo, 3, 17)
	if got := s.Desc(); got != "links(3,17)" {
		t.Errorf("link-set Desc = %q, want links(3,17)", got)
	}
	one := Default().Generate(topo, rand.New(rand.NewSource(5)))
	if !strings.HasPrefix(one.Desc(), "disk(") {
		t.Errorf("disk Desc = %q", one.Desc())
	}
	cut := CutGen{Width: 120, MinLen: 500, MaxLen: 1500}.Generate(topo, rand.New(rand.NewSource(5)))
	if !strings.HasPrefix(cut.Desc(), "cut(") {
		t.Errorf("cut Desc = %q", cut.Desc())
	}
}

// TestAllDefaultsMatchesKinds: the registry is complete and ordered.
func TestAllDefaultsMatchesKinds(t *testing.T) {
	gens := AllDefaults()
	kinds := Kinds()
	if len(gens) != len(kinds) {
		t.Fatalf("%d defaults for %d kinds", len(gens), len(kinds))
	}
	for i, g := range gens {
		if g.Name() != kinds[i] {
			t.Errorf("default %d: Name %q, want %q (defaults must be canonical bare kinds)",
				i, g.Name(), kinds[i])
		}
	}
}

// AllDefaults returns one default-configured generator per registered
// kind, in Kinds order — the matrix the property tests sweep.
func AllDefaults() []Generator {
	out := make([]Generator, 0, len(Kinds()))
	for _, k := range Kinds() {
		g, err := ParseSpec(k)
		if err != nil {
			panic("failure: default spec " + k + " does not parse: " + err.Error())
		}
		out = append(out, g)
	}
	return out
}

// DefaultSpec is the paper's failure model: one disk, radius uniform
// in [MinRadius, MaxRadius].
const DefaultSpec = "disk"
