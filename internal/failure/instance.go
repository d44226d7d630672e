package failure

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/topology"
)

// An instance descriptor names one concrete failure: ';'-joined terms of
//
//	disk(x,y,r)           one disk area
//	cut(ax,ay,bx,by,r)    one capsule area (spine endpoints, radius)
//	links(3,17,...)       explicitly failed links
//
// or the single word "none". Handling one has two stages. Text to
// canonical fingerprint (AppendCanonical) reads only the text: blanks
// go, every number is respelled the shortest way that parses back to
// the same float64, and all links terms merge into one ascending,
// duplicate-free term after the areas. The order of the areas is part
// of the fingerprint, so a repro string stays byte-stable. Fingerprint
// to ground truth (ParseInstance) tests every node and link of a
// topology against the areas; a cache keyed by fingerprint pays for it
// once per failure, not once per query. scanInstance is the only reader
// of the grammar and appendArea/appendLinks/finishDesc the only writer,
// so the fingerprint of a descriptor and the Desc() of the scenario
// parsed from it are the same bytes.

// MaxInstanceTerms bounds the terms of one descriptor: every area costs
// ParseInstance a pass over the topology, and the descriptor comes from
// outside the program.
const MaxInstanceTerms = 256

// areaTerm is one area in grammar form, kind(v[0],...,v[n-1]) with the
// radius last.
type areaTerm struct {
	kind string
	n    int
	v    [5]float64
}

// termOf spells an area as a grammar term; ok is false for an Area
// implementation the grammar has no kind for.
func termOf(a Area) (t areaTerm, ok bool) {
	switch a := a.(type) {
	case geom.Disk:
		return areaTerm{"disk", 3, [5]float64{a.Center.X, a.Center.Y, a.Radius}}, true
	case geom.Capsule:
		return areaTerm{"cut", 5, [5]float64{a.Seg.A.X, a.Seg.A.Y, a.Seg.B.X, a.Seg.B.Y, a.Radius}}, true
	}
	return areaTerm{}, false
}

// area is termOf's inverse.
func (t areaTerm) area() Area {
	v := t.v
	if t.kind == "disk" {
		return geom.Disk{Center: geom.Point{X: v[0], Y: v[1]}, Radius: v[2]}
	}
	return geom.Capsule{
		Seg:    geom.Segment{A: geom.Point{X: v[0], Y: v[1]}, B: geom.Point{X: v[2], Y: v[3]}},
		Radius: v[4],
	}
}

// arity returns the argument count of an area kind, 0 for an unknown
// one.
func arity(kind string) int {
	switch kind {
	case "disk":
		return 3
	case "cut":
		return 5
	}
	return 0
}

// The descriptor writer. Every term is written with a ';' after it and
// finishDesc drops the last one, so the pieces need no state and a
// caller's buffer flows through them without escaping.

func appendArea(dst []byte, t areaTerm) []byte {
	dst = append(append(dst, t.kind...), '(')
	for _, x := range t.v[:t.n] {
		dst = append(strconv.AppendFloat(dst, x, 'g', -1, 64), ',')
	}
	return append(dst[:len(dst)-1], ')', ';')
}

// appendLinks writes the explicit-links term; ids must be ascending and
// duplicate-free (normLinks), and an empty set writes nothing.
func appendLinks(dst []byte, ids []graph.LinkID) []byte {
	if len(ids) == 0 {
		return dst
	}
	dst = append(dst, "links("...)
	for _, id := range ids {
		dst = append(strconv.AppendUint(dst, uint64(id), 10), ',')
	}
	return append(dst[:len(dst)-1], ')', ';')
}

// finishDesc closes the descriptor that began at dst[start], spelling
// an instance without terms "none".
func finishDesc(dst []byte, start int) []byte {
	if len(dst) == start {
		return append(dst, "none"...)
	}
	return dst[:len(dst)-1]
}

// normLinks sorts ids ascending and drops duplicates, in place.
func normLinks(ids []graph.LinkID) []graph.LinkID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// instance is what compose needs of a descriptor.
type instance struct {
	areas []Area
	links []graph.LinkID
}

// scanInstance is the one reader of the grammar. It walks desc once,
// appends the canonical fingerprint to dst and, when inst is not nil,
// also collects the instance. It accepts no more than MaxInstanceTerms
// terms, only finite numbers, no negative radius, and link IDs below
// numLinks. It reads no topology, and without inst it allocates only
// when dst must grow.
func scanInstance(dst []byte, desc string, numLinks int, inst *instance) ([]byte, error) {
	start := len(dst)
	desc = strings.TrimSpace(desc)
	if desc == "" {
		return dst, errors.New("failure: empty instance descriptor")
	}
	if desc == "none" {
		return append(dst, desc...), nil
	}
	var few [16]graph.LinkID
	ids := few[:0]
	for n, more := 1, true; more; n++ {
		if n > MaxInstanceTerms {
			return dst[:start], fmt.Errorf("failure: instance descriptor has more than %d terms", MaxInstanceTerms)
		}
		var term string
		term, desc, more = strings.Cut(desc, ";")
		var err error
		if dst, ids, err = scanTerm(dst, ids, term, numLinks, inst); err != nil {
			return dst[:start], err
		}
	}
	ids = normLinks(ids)
	if inst != nil {
		inst.links = append(inst.links, ids...)
	}
	return finishDesc(appendLinks(dst, ids), start), nil
}

// scanTerm reads one term: an area goes to dst (and inst) at once, the
// IDs of a links term join ids until the descriptor ends.
func scanTerm(dst []byte, ids []graph.LinkID, term string, numLinks int, inst *instance) ([]byte, []graph.LinkID, error) {
	t := strings.TrimSpace(term)
	open := strings.IndexByte(t, '(')
	if open <= 0 || t[len(t)-1] != ')' {
		return dst, ids, fmt.Errorf("failure: malformed instance term %q", term)
	}
	kind, args := t[:open], t[open+1:len(t)-1]
	if args == "" {
		return dst, ids, fmt.Errorf("failure: instance term %q has no arguments", term)
	}
	if kind == "links" {
		for more := true; more; {
			var a string
			a, args, more = strings.Cut(args, ",")
			n, err := strconv.Atoi(strings.TrimSpace(a))
			if err != nil || n < 0 || n >= numLinks {
				return dst, ids, fmt.Errorf("failure: instance term %q: bad link ID %q", term, a)
			}
			ids = append(ids, graph.LinkID(n))
		}
		return dst, ids, nil
	}
	at := areaTerm{kind: kind, n: arity(kind)}
	if at.n == 0 {
		return dst, ids, fmt.Errorf("failure: instance term %q: unknown kind %q", term, kind)
	}
	if got := strings.Count(args, ",") + 1; got != at.n {
		return dst, ids, fmt.Errorf("failure: instance term %q: want %d arguments, got %d", term, at.n, got)
	}
	for i := 0; i < at.n; i++ {
		var a string
		a, args, _ = strings.Cut(args, ",")
		x, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return dst, ids, fmt.Errorf("failure: instance term %q: bad number %q", term, a)
		}
		at.v[i] = x
	}
	if at.v[at.n-1] < 0 {
		return dst, ids, fmt.Errorf("failure: instance term %q: negative radius", term)
	}
	if inst != nil {
		inst.areas = append(inst.areas, at.area())
	}
	return appendArea(dst, at), ids, nil
}

// AppendCanonical appends the canonical fingerprint of desc to dst: the
// spelling Desc() gives the scenario ParseInstance builds from desc on
// any topology with numLinks links, worked out from the text alone in
// O(len(desc)). The fingerprint is a fixed point, and ParseInstance
// accepts exactly the descriptors AppendCanonical does. On an error dst
// comes back unchanged.
func AppendCanonical(dst []byte, desc string, numLinks int) ([]byte, error) {
	return scanInstance(dst, desc, numLinks, nil)
}

// Canonical is AppendCanonical into a fresh string.
func Canonical(desc string, numLinks int) (string, error) {
	var few [128]byte
	b, err := AppendCanonical(few[:0], desc, numLinks)
	return string(b), err
}

// ParseInstance builds the ground truth of an instance descriptor on
// topo. The round trip ParseInstance(topo, s.Desc()) yields a scenario
// with an identical failure mask, which is what makes invariant repro
// strings actionable for every generator.
func ParseInstance(topo *topology.Topology, desc string) (*Scenario, error) {
	var inst instance
	if _, err := scanInstance(nil, desc, topo.G.NumLinks(), &inst); err != nil {
		return nil, err
	}
	return compose(topo, inst.areas, inst.links), nil
}
