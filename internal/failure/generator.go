package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/topology"
)

// Generator is a pluggable failure model: it draws random failure
// scenarios on a topology. All randomness must come from the supplied
// rng, so a generator's output is a pure function of (topology, RNG
// stream) — the property the sweep engine's sharded checkpoints and
// the determinism tests depend on.
type Generator interface {
	// Name returns the canonical spec string of the generator;
	// ParseSpec(Name()) round-trips to an identical generator.
	Name() string
	// Generate draws one failure scenario.
	Generate(topo *topology.Topology, rng *rand.Rand) *Scenario
}

// FixedRadius is implemented by generators whose failure extent can be
// pinned to a single radius, the knob Fig.-11-style radius sweeps
// turn. WithRadius returns a copy of the generator with every random
// extent replaced by r (for cuts, r is the capsule half-width).
type FixedRadius interface {
	Generator
	WithRadius(r float64) Generator
}

// Default returns the paper's single-disk generator. Its Generate is
// bit-identical to RandomScenario on the same RNG stream.
func Default() Generator { return DiskGen{Min: MinRadius, Max: MaxRadius} }

// ---------------------------------------------------------------------
// disk — the paper's model: one disk, uniform center, uniform radius.

// DiskGen draws a single circular failure area.
type DiskGen struct {
	Min, Max float64 // radius bounds
}

// Name implements Generator.
func (g DiskGen) Name() string {
	return "disk" + radiusParams(g.Min, g.Max)
}

// Generate implements Generator. It consumes exactly the RNG draws of
// RandomScenario, in the same order, and produces the identical mask.
func (g DiskGen) Generate(topo *topology.Topology, rng *rand.Rand) *Scenario {
	s := NewScenario(topo, RandomArea(rng, g.Min, g.Max))
	s.gen = g.Name()
	return s
}

// WithRadius implements FixedRadius.
func (g DiskGen) WithRadius(r float64) Generator { return DiskGen{Min: r, Max: r} }

// ---------------------------------------------------------------------
// disks — k simultaneous disks, optionally pairwise disjoint
// (Enhanced MRC's multiple-simultaneous-failures model).

// MultiDiskGen draws k disks, optionally rejecting overlaps.
type MultiDiskGen struct {
	K        int
	Min, Max float64
	// Disjoint redraws each disk (boundedly) until it overlaps none of
	// the previously accepted ones, modeling independent disasters.
	Disjoint bool
}

// Name implements Generator.
func (g MultiDiskGen) Name() string {
	n := "disks"
	if g.K != 2 {
		n += joinParam(n, "disks", fmt.Sprintf("k=%d", g.K))
	}
	n += radiusParamsAfter(n, "disks", g.Min, g.Max)
	if g.Disjoint {
		n += joinParam(n, "disks", "disjoint")
	}
	return n
}

// Generate implements Generator.
func (g MultiDiskGen) Generate(topo *topology.Topology, rng *rand.Rand) *Scenario {
	areas := make([]Area, 0, g.K)
	disks := make([]geom.Disk, 0, g.K)
	for i := 0; i < g.K; i++ {
		d := RandomArea(rng, g.Min, g.Max)
		if g.Disjoint {
			for tries := 0; tries < 64 && overlapsAnyDisk(d, disks); tries++ {
				d = RandomArea(rng, g.Min, g.Max)
			}
		}
		disks = append(disks, d)
		areas = append(areas, d)
	}
	s := compose(topo, areas, nil)
	s.gen = g.Name()
	return s
}

func overlapsAnyDisk(d geom.Disk, disks []geom.Disk) bool {
	for _, o := range disks {
		if d.Center.Dist(o.Center) < d.Radius+o.Radius {
			return true
		}
	}
	return false
}

// WithRadius implements FixedRadius.
func (g MultiDiskGen) WithRadius(r float64) Generator {
	return MultiDiskGen{K: g.K, Min: r, Max: r, Disjoint: g.Disjoint}
}

// ---------------------------------------------------------------------
// cut — a line/conduit cut: a random strip (capsule) of given width
// failing every node and link it touches. Models trenching accidents,
// border strips, and EMP corridors.

// CutGen draws one capsule-shaped cut.
type CutGen struct {
	// Width is the full width of the strip (the capsule radius is
	// Width/2).
	Width float64
	// MinLen and MaxLen bound the cut length; the cut may extend past
	// the simulation area's edge (partial overlap is legitimate).
	MinLen, MaxLen float64
}

// Name implements Generator.
func (g CutGen) Name() string {
	n := "cut"
	if g.Width != 120 {
		n += joinParam(n, "cut", "w="+ftoa(g.Width))
	}
	if g.MinLen != 500 || g.MaxLen != 1500 {
		n += joinParam(n, "cut", "lmin="+ftoa(g.MinLen))
		n += joinParam(n, "cut", "lmax="+ftoa(g.MaxLen))
	}
	return n
}

// Generate implements Generator.
func (g CutGen) Generate(topo *topology.Topology, rng *rand.Rand) *Scenario {
	a := geom.Point{X: rng.Float64() * topology.Width, Y: rng.Float64() * topology.Height}
	theta := rng.Float64() * 2 * math.Pi
	length := g.MinLen + rng.Float64()*(g.MaxLen-g.MinLen)
	b := a.Add(geom.Point{X: math.Cos(theta) * length, Y: math.Sin(theta) * length})
	s := compose(topo, []Area{geom.Capsule{Seg: geom.Segment{A: a, B: b}, Radius: g.Width / 2}}, nil)
	s.gen = g.Name()
	return s
}

// WithRadius implements FixedRadius: the radius plays the capsule
// half-width, so a radius sweep widens the strip.
func (g CutGen) WithRadius(r float64) Generator {
	return CutGen{Width: 2 * r, MinLen: g.MinLen, MaxLen: g.MaxLen}
}

// ---------------------------------------------------------------------
// srlg — correlated shared-risk link groups: links are partitioned
// into geographically-close groups (grid cells over their midpoints),
// and a scenario fails every link of n sampled groups.

// SRLGGen fails whole shared-risk link groups.
type SRLGGen struct {
	// Groups is the partition-granularity target: links are bucketed
	// into a ceil(sqrt(Groups))² grid of cells by midpoint; the
	// non-empty cells are the named groups.
	Groups int
	// Fail is how many distinct groups fail per scenario.
	Fail int
}

// Name implements Generator.
func (g SRLGGen) Name() string {
	n := "srlg"
	if g.Groups != 16 {
		n += joinParam(n, "srlg", fmt.Sprintf("g=%d", g.Groups))
	}
	if g.Fail != 1 {
		n += joinParam(n, "srlg", fmt.Sprintf("n=%d", g.Fail))
	}
	return n
}

// Generate implements Generator.
func (g SRLGGen) Generate(topo *topology.Topology, rng *rand.Rand) *Scenario {
	groups := srlgGroups(topo, g.Groups)
	var links []graph.LinkID
	if len(groups) > 0 {
		pick := g.Fail
		if pick > len(groups) {
			pick = len(groups)
		}
		for _, gi := range rng.Perm(len(groups))[:pick] {
			links = append(links, groups[gi].Links...)
		}
		sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	}
	s := compose(topo, nil, links)
	s.gen = g.Name()
	return s
}

// srlgGroup is one named shared-risk group: the links whose midpoints
// fall into one grid cell.
type srlgGroup struct {
	Name  string
	Links []graph.LinkID
}

// srlgGroups partitions topo's links into geographically-close groups:
// a ceil(sqrt(target))² grid of equal cells over the simulation area,
// bucketing links by segment midpoint. The returned groups are the
// non-empty cells in row-major order — a deterministic pure function
// of the topology, so group identity is stable across runs.
func srlgGroups(topo *topology.Topology, target int) []srlgGroup {
	if target < 1 {
		target = 1
	}
	r := int(math.Ceil(math.Sqrt(float64(target))))
	cells := make([][]graph.LinkID, r*r)
	for i := 0; i < topo.G.NumLinks(); i++ {
		id := graph.LinkID(i)
		m := topo.LinkSegment(id).Midpoint()
		cx := int(m.X / (topology.Width / float64(r)))
		cy := int(m.Y / (topology.Height / float64(r)))
		if cx < 0 {
			cx = 0
		} else if cx >= r {
			cx = r - 1
		}
		if cy < 0 {
			cy = 0
		} else if cy >= r {
			cy = r - 1
		}
		cells[cy*r+cx] = append(cells[cy*r+cx], id)
	}
	var out []srlgGroup
	for ci, links := range cells {
		if len(links) == 0 {
			continue
		}
		out = append(out, srlgGroup{
			Name:  fmt.Sprintf("cell(%d,%d)", ci%r, ci/r),
			Links: links,
		})
	}
	return out
}

// ---------------------------------------------------------------------
// link — a single uniform random link failure: the smallest transient
// failure (the OSPF emergency-path papers' model), drawn while it is
// down.

// LinkFlapGen fails one uniformly random link.
type LinkFlapGen struct{}

// Name implements Generator.
func (LinkFlapGen) Name() string { return "link" }

// Generate implements Generator.
func (g LinkFlapGen) Generate(topo *topology.Topology, rng *rand.Rand) *Scenario {
	id := graph.LinkID(rng.Intn(topo.G.NumLinks()))
	s := NewLinkSet(topo, id)
	s.gen = g.Name()
	return s
}

// ---------------------------------------------------------------------
// Spec parsing.

// Kinds returns the registered generator kinds in registration order.
func Kinds() []string {
	return []string{"disk", "disks", "cut", "srlg", "link"}
}

// ParseSpecOrDefault parses a generator spec, mapping the empty string
// to the paper's default model.
func ParseSpecOrDefault(spec string) (Generator, error) {
	if spec == "" {
		return Default(), nil
	}
	return ParseSpec(spec)
}

// ParseSpec parses a generator spec string of the form
// "kind[:key=val,key=val,flag,...]":
//
//	disk[:rmin=R,rmax=R]            one disk (the paper's model)
//	disks[:k=N,rmin=R,rmax=R,disjoint]  k simultaneous disks
//	cut[:w=W,lmin=L,lmax=L]         one conduit cut of width W
//	srlg[:g=N,n=N]                  n correlated link groups out of ~g
//	link                            one random link failure
//
// Unknown kinds, unknown keys, malformed or out-of-range values are
// errors; ParseSpec never panics (fuzzed by FuzzGeneratorSpec).
func ParseSpec(spec string) (Generator, error) {
	kind, rest, hasParams := strings.Cut(spec, ":")
	p, err := parseParams(rest, hasParams)
	if err != nil {
		return nil, fmt.Errorf("failure: spec %q: %w", spec, err)
	}
	var g Generator
	switch kind {
	case "disk":
		d := DiskGen{Min: MinRadius, Max: MaxRadius}
		d.Min = p.float("rmin", d.Min)
		d.Max = p.float("rmax", d.Max)
		if err := radiusOK(d.Min, d.Max); err == nil {
			g = d
		} else {
			p.err = err
		}
	case "disks":
		d := MultiDiskGen{K: 2, Min: MinRadius, Max: MaxRadius}
		d.K = p.integer("k", d.K, 1, 16)
		d.Min = p.float("rmin", d.Min)
		d.Max = p.float("rmax", d.Max)
		d.Disjoint = p.flag("disjoint")
		if err := radiusOK(d.Min, d.Max); err == nil {
			g = d
		} else {
			p.err = err
		}
	case "cut":
		c := CutGen{Width: 120, MinLen: 500, MaxLen: 1500}
		c.Width = p.float("w", c.Width)
		c.MinLen = p.float("lmin", c.MinLen)
		c.MaxLen = p.float("lmax", c.MaxLen)
		switch {
		case !finitePositive(c.Width) || c.Width > 2*topology.Width:
			p.err = fmt.Errorf("width %g out of (0, %g]", c.Width, 2*topology.Width)
		case !finitePositive(c.MinLen) || !finitePositive(c.MaxLen) || c.MinLen > c.MaxLen || c.MaxLen > 4*topology.Width:
			p.err = fmt.Errorf("lengths [%g, %g] invalid", c.MinLen, c.MaxLen)
		default:
			g = c
		}
	case "srlg":
		s := SRLGGen{Groups: 16, Fail: 1}
		s.Groups = p.integer("g", s.Groups, 1, 1024)
		s.Fail = p.integer("n", s.Fail, 1, 1024)
		if s.Fail > s.Groups {
			p.err = fmt.Errorf("n=%d exceeds g=%d", s.Fail, s.Groups)
		} else {
			g = s
		}
	case "link":
		g = LinkFlapGen{}
	default:
		return nil, fmt.Errorf("failure: spec %q: unknown generator kind %q (known: %s)",
			spec, kind, strings.Join(Kinds(), ", "))
	}
	if p.err != nil {
		return nil, fmt.Errorf("failure: spec %q: %w", spec, p.err)
	}
	if extra := p.unused(); len(extra) > 0 {
		return nil, fmt.Errorf("failure: spec %q: unknown parameter(s) %s for %q",
			spec, strings.Join(extra, ", "), kind)
	}
	return g, nil
}

func radiusOK(min, max float64) error {
	if !finitePositive(min) || !finitePositive(max) || min > max || max > topology.Width {
		return fmt.Errorf("radius bounds [%g, %g] invalid (want 0 < rmin <= rmax <= %g)", min, max, topology.Width)
	}
	return nil
}

func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// params is the parsed key=value/flag list of a spec string. Getters
// record which keys were consumed so unknown keys fail the parse.
type params struct {
	kv    map[string]string
	flags map[string]bool
	order []string
	used  map[string]bool
	err   error
}

func parseParams(rest string, hasParams bool) (*params, error) {
	p := &params{kv: map[string]string{}, flags: map[string]bool{}, used: map[string]bool{}}
	if !hasParams {
		return p, nil
	}
	if rest == "" {
		return nil, fmt.Errorf("empty parameter list after ':'")
	}
	for _, part := range strings.Split(rest, ",") {
		if part == "" {
			return nil, fmt.Errorf("empty parameter")
		}
		k, v, isKV := strings.Cut(part, "=")
		if k == "" {
			return nil, fmt.Errorf("parameter %q has no key", part)
		}
		if _, dup := p.kv[k]; dup || p.flags[k] {
			return nil, fmt.Errorf("duplicate parameter %q", k)
		}
		if isKV {
			if v == "" {
				return nil, fmt.Errorf("parameter %q has no value", k)
			}
			p.kv[k] = v
		} else {
			p.flags[k] = true
		}
		p.order = append(p.order, k)
	}
	return p, nil
}

func (p *params) float(key string, def float64) float64 {
	v, ok := p.kv[key]
	if !ok {
		return def
	}
	p.used[key] = true
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: not a number", key, v)
	}
	return f
}

func (p *params) integer(key string, def, min, max int) int {
	v, ok := p.kv[key]
	if !ok {
		return def
	}
	p.used[key] = true
	n, err := strconv.Atoi(v)
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("parameter %s=%q: not an integer", key, v)
		}
		return def
	}
	if n < min || n > max {
		if p.err == nil {
			p.err = fmt.Errorf("parameter %s=%d out of [%d, %d]", key, n, min, max)
		}
		return def
	}
	return n
}

func (p *params) flag(key string) bool {
	if p.flags[key] {
		p.used[key] = true
		return true
	}
	return false
}

func (p *params) unused() []string {
	var out []string
	for _, k := range p.order {
		if !p.used[k] {
			out = append(out, k)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Canonical-name helpers.

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// radiusParams renders ":rmin=..,rmax=.." when the bounds differ from
// the paper's defaults, "" otherwise.
func radiusParams(min, max float64) string {
	if min == MinRadius && max == MaxRadius {
		return ""
	}
	return ":rmin=" + ftoa(min) + ",rmax=" + ftoa(max)
}

// joinParam appends a parameter to a partially built name: ':' if the
// name is still the bare kind, ',' otherwise.
func joinParam(built, kind, param string) string {
	if built == kind {
		return ":" + param
	}
	return "," + param
}

// radiusParamsAfter is radiusParams aware of parameters already
// rendered into the name.
func radiusParamsAfter(built, kind string, min, max float64) string {
	if min == MinRadius && max == MaxRadius {
		return ""
	}
	return joinParam(built, kind, "rmin="+ftoa(min)) + ",rmax=" + ftoa(max)
}
