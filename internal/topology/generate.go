package topology

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/graph"
)

// GenParams parameterizes the ISP-like topology generator.
type GenParams struct {
	Name  string
	Nodes int
	Links int
	// PrefAttach biases new attachments toward high-degree nodes; 0
	// yields uniform random attachment, larger values yield stronger
	// hubs (and, in sparse graphs, more degree-1 tree branches).
	PrefAttach float64
	// Locality biases links toward geometrically near endpoints, as in
	// measured ISP maps (the Waxman model): attachment weight decays
	// as exp(-dist / (Locality * diagonal)). Zero defaults to 0.10;
	// negative disables the bias entirely (links ignore geometry).
	Locality float64
	// Width and Height of the embedding area; zero values default to
	// the paper's 2000x2000.
	Width, Height float64
	// Tiers switches to the hierarchical PoP generator (hierarchy.go):
	// a core / aggregation / access three-tier layout with geometric
	// locality per tier, built in near-linear time so city/continent
	// scale (10^5 nodes) synthesizes in seconds. The flat Waxman +
	// preferential-attachment model above stays the Table II generator;
	// PrefAttach is ignored in tiered mode.
	Tiers bool
}

// Rocketfuel substitute: the paper's Table II node and link counts for
// the eight Rocketfuel-derived ISP topologies. The generator below
// reproduces the counts exactly; the graph structure is synthesized
// (see DESIGN.md §4 for why this preserves the evaluation's behavior).
var tableII = []GenParams{
	{Name: "AS209", Nodes: 58, Links: 108, PrefAttach: 1.0},
	{Name: "AS701", Nodes: 83, Links: 219, PrefAttach: 1.0},
	{Name: "AS1239", Nodes: 52, Links: 84, PrefAttach: 1.2},
	{Name: "AS3320", Nodes: 70, Links: 355, PrefAttach: 0.8},
	{Name: "AS3549", Nodes: 61, Links: 486, PrefAttach: 0.5},
	{Name: "AS3561", Nodes: 92, Links: 329, PrefAttach: 0.8},
	{Name: "AS4323", Nodes: 51, Links: 161, PrefAttach: 1.0},
	// AS7018 is the sparse, tree-branch-rich topology the paper calls
	// out under Fig. 7; stronger preferential attachment concentrates
	// links on a few hubs and leaves many degree-1 branches.
	{Name: "AS7018", Nodes: 115, Links: 148, PrefAttach: 1.25},
}

// TableII returns the generator presets matching the paper's Table II.
func TableII() []GenParams {
	out := make([]GenParams, len(tableII))
	copy(out, tableII)
	return out
}

// ASNames returns the names of the eight Table II topologies in paper
// order.
func ASNames() []string {
	names := make([]string, len(tableII))
	for i, p := range tableII {
		names[i] = p.Name
	}
	return names
}

// ParamsFor returns the Table II preset with the given name.
func ParamsFor(name string) (GenParams, bool) {
	for _, p := range tableII {
		if p.Name == name {
			return p, true
		}
	}
	return GenParams{}, false
}

// GenerateAS synthesizes the named Table II topology with the given
// seed. It panics if the name is unknown; use ParamsFor + Generate for
// non-panicking construction.
func GenerateAS(name string, seed int64) *Topology {
	p, ok := ParamsFor(name)
	if !ok {
		panic(fmt.Sprintf("topology: unknown AS %q", name))
	}
	t, err := Generate(p, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return t
}

// Generate synthesizes a connected ISP-like topology with exactly
// p.Nodes nodes and p.Links links. Nodes are placed uniformly at
// random in the simulation area (the paper's setup); links follow a
// Waxman-style model — attachment probability decays with distance —
// combined with preferential attachment, giving the geometric locality
// and heavy-tailed degree mix of measured ISP backbones. Locality is
// what makes the paper's premise meaningful: a geographic failure area
// destroys geographically close infrastructure.
func Generate(p GenParams, rng *rand.Rand) (*Topology, error) {
	if p.Tiers {
		return generateTiered(p, rng)
	}
	if p.Nodes < 2 {
		return nil, fmt.Errorf("topology: need at least 2 nodes, got %d", p.Nodes)
	}
	minLinks := p.Nodes - 1
	maxLinks := p.Nodes * (p.Nodes - 1) / 2
	if p.Links < minLinks || p.Links > maxLinks {
		return nil, fmt.Errorf("topology %q: %d links out of range [%d, %d] for %d nodes",
			p.Name, p.Links, minLinks, maxLinks, p.Nodes)
	}
	w, h := p.Width, p.Height
	if w == 0 {
		w = Width
	}
	if h == 0 {
		h = Height
	}
	locality := p.Locality
	if locality == 0 {
		locality = 0.10
	}
	scale := locality * math.Hypot(w, h)
	if locality < 0 {
		scale = math.Inf(1) // distance bias disabled
	}

	coords := make([]geom.Point, p.Nodes)
	for i := range coords {
		coords[i] = geom.Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}

	g := graph.New(p.Nodes)
	// degW[u] is degWeight of node u's current degree, updated with
	// the degree; wts is the per-pick weight scratch (local to this
	// call, since worlds are generated concurrently).
	deg := make([]float64, p.Nodes)
	degW := make([]float64, p.Nodes)
	for u := range degW {
		degW[u] = degWeight(0, p.PrefAttach)
	}
	addDeg := func(u int) {
		deg[u]++
		degW[u] = degWeight(deg[u], p.PrefAttach)
	}
	wts := make([]float64, p.Nodes)
	// weight of attaching some new link endpoint to node u, given the
	// other endpoint sits at point from.
	attachWeight := func(u int, from geom.Point) float64 {
		wgt := degW[u]
		if !math.IsInf(scale, 1) {
			wgt *= math.Exp(-coords[u].Dist(from) / scale)
		}
		return wgt
	}

	// Spanning tree: each node (in random order) attaches to an
	// already-attached node sampled by degree and proximity.
	order := rng.Perm(p.Nodes)
	for i := 1; i < p.Nodes; i++ {
		v := order[i]
		for k, cand := range order[:i] {
			wts[k] = attachWeight(cand, coords[v])
		}
		u := order[pickWeighted(rng, wts[:i])]
		if _, err := g.AddLink(graph.NodeID(u), graph.NodeID(v)); err != nil {
			return nil, err
		}
		addDeg(u)
		addDeg(v)
	}

	// Extra links: first endpoint by degree, second by degree and
	// proximity, no duplicates.
	have := make(map[[2]graph.NodeID]bool, p.Links)
	for _, l := range g.Links() {
		have[linkKey(l.A, l.B)] = true
	}
	stall := 0
	for g.NumLinks() < p.Links {
		a := pickWeighted(rng, degW)
		for cand := range wts {
			wts[cand] = attachWeight(cand, coords[a])
		}
		wts[a] = 0
		b := pickWeighted(rng, wts)
		if a == b || have[linkKey(graph.NodeID(a), graph.NodeID(b))] {
			stall++
			if stall > 50*p.Links {
				// Dense targets (e.g. the AS3549 analogue at 486 links
				// on 61 nodes) can exhaust local candidates; fall back
				// to the nearest absent pair.
				var found bool
				a, b, found = nearestAbsentPair(coords, have)
				if !found {
					return nil, fmt.Errorf("topology %q: graph saturated before reaching %d links", p.Name, p.Links)
				}
			} else {
				continue
			}
		}
		if _, err := g.AddLink(graph.NodeID(a), graph.NodeID(b)); err != nil {
			return nil, err
		}
		have[linkKey(graph.NodeID(a), graph.NodeID(b))] = true
		addDeg(a)
		addDeg(b)
		stall = 0
	}

	return &Topology{Name: p.Name, G: g, Coords: coords}, nil
}

func linkKey(a, b graph.NodeID) [2]graph.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]graph.NodeID{a, b}
}

// pickWeighted returns an index into w chosen with probability
// proportional to w[i].
func pickWeighted(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return rng.Intn(len(w))
	}
	x := rng.Float64() * total
	for i, v := range w {
		x -= v
		if x <= 0 {
			return i
		}
	}
	return len(w) - 1
}

func degWeight(d, alpha float64) float64 {
	w := d + 1
	switch alpha {
	case 0:
		return 1
	case 1:
		return w
	default:
		return math.Pow(w, alpha)
	}
}

// nearestAbsentPair returns the geometrically closest node pair with no
// link yet.
func nearestAbsentPair(coords []geom.Point, have map[[2]graph.NodeID]bool) (int, int, bool) {
	bestA, bestB := -1, -1
	bestD := math.Inf(1)
	for a := 0; a < len(coords); a++ {
		for b := a + 1; b < len(coords); b++ {
			if have[linkKey(graph.NodeID(a), graph.NodeID(b))] {
				continue
			}
			if d := coords[a].Dist2(coords[b]); d < bestD {
				bestA, bestB, bestD = a, b, d
			}
		}
	}
	return bestA, bestB, bestA >= 0
}
