package failure

import (
	"strings"
	"testing"
)

// FuzzGeneratorSpec hammers the spec parser with arbitrary strings:
// it must never panic, and every accepted spec must round-trip — the
// generator's canonical Name() reparses to a generator with the same
// canonical name (the property checkpoint fingerprints rely on).
func FuzzGeneratorSpec(f *testing.F) {
	for _, k := range Kinds() {
		f.Add(k)
	}
	f.Add("disk:rmin=50,rmax=80")
	f.Add("disks:k=3,disjoint")
	f.Add("cut:w=200,lmin=100,lmax=400")
	f.Add("srlg:g=25,n=3")
	f.Add("cascade")
	f.Add("transient")
	f.Add("cascade:steps=5,rmin=80,rmax=80")
	f.Add("transient:steps=2")
	f.Add("disk:rmin=1e99")
	f.Add("disk:rmin=NaN,rmax=Inf")
	f.Add("disks:k=-1")
	f.Add(":::===,,,")
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseSpec(spec)
		if err != nil {
			if g != nil {
				t.Fatalf("error with non-nil generator: %v", err)
			}
			return
		}
		name := g.Name()
		if name == "" {
			t.Fatalf("accepted spec %q has empty canonical name", spec)
		}
		if strings.ContainsAny(name, " \t\n") {
			t.Fatalf("canonical name %q contains whitespace", name)
		}
		g2, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("canonical name %q of accepted spec %q does not reparse: %v", name, spec, err)
		}
		if g2.Name() != name {
			t.Fatalf("canonical name not a fixed point: %q -> %q", name, g2.Name())
		}
	})
}

// FuzzParseInstance hammers the instance grammar: neither stage ever
// panics, both accept exactly the same descriptors, the text-only
// fingerprint is the Desc() of the scenario built from the text and a
// fixed point, and a descriptor and its fingerprint fail the same
// nodes and links.
func FuzzParseInstance(f *testing.F) {
	f.Add("none")
	f.Add("disk(100,100,50)")
	f.Add("disk( 1000.0 , 1e3,\t150.50 )")
	f.Add("cut(200,300,1500,900,60)")
	f.Add("links(17,3,17)")
	f.Add("disk(100,100,50);links(5)")
	f.Add("links(5);disk(1000,1000,150);links(4)")
	f.Add("disk(1000,1000,100);disk(900,1000,100)")
	f.Add("disk(NaN,1,1)")
	f.Add("disk(1,1,-5)")
	f.Add("disk(0x1p4,-0,1e400)")
	f.Add("links(999999)")
	f.Add("garbage(1")
	f.Add(strings.Repeat("disk(1,2,3);", MaxInstanceTerms+1))
	topo := testTopo(f)
	f.Fuzz(func(t *testing.T, desc string) {
		fp, cerr := Canonical(desc, topo.G.NumLinks())
		sc, perr := ParseInstance(topo, desc)
		if (cerr == nil) != (perr == nil) {
			t.Fatalf("%q: Canonical says %v, ParseInstance says %v", desc, cerr, perr)
		}
		if cerr != nil {
			return
		}
		if got := sc.Desc(); got != fp {
			t.Fatalf("%q: Desc %q != Canonical %q", desc, got, fp)
		}
		again, err := Canonical(fp, topo.G.NumLinks())
		if err != nil || again != fp {
			t.Fatalf("%q: fingerprint %q is not a fixed point: %q, %v", desc, fp, again, err)
		}
		re, err := ParseInstance(topo, fp)
		if err != nil {
			t.Fatalf("%q: fingerprint %q does not parse: %v", desc, fp, err)
		}
		if !sameMask(sc, re) {
			t.Fatalf("%q and its fingerprint %q fail different nodes or links", desc, fp)
		}
	})
}
