package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/routing"
)

// Scheme names: the registry keys, also the CLI and API spellings.
// SchemeAll is no scheme of its own: it names the paper's three
// (PaperSchemes), which RunAllN runs on every case.
const (
	SchemeRTR    = "rtr"
	SchemeFCP    = "fcp"
	SchemeMRC    = "mrc"
	SchemeSpread = "rtr-spread"
	SchemeAll    = "all"
)

// Result is the scheme-independent projection of one case outcome:
// what every registered scheme can report about a recovery attempt,
// regardless of its internal mechanics. Load accounting charges the
// Walks; a served or recorded outcome carries the grading fields.
type Result struct {
	// Delivered reports end-to-end delivery under the ground-truth
	// failure.
	Delivered bool `json:"delivered"`
	// Optimal reports the delivered path matched the true post-failure
	// shortest path cost; Stretch is the delivered cost over that
	// optimum (1 when optimal, 0 when not delivered or ungraded).
	Optimal bool    `json:"optimal,omitempty"`
	Stretch float64 `json:"stretch,omitempty"`
	// SPCalcs counts shortest-path calculations (the paper's
	// computational-overhead metric).
	SPCalcs int `json:"sp_calcs,omitempty"`
	// NoLiveNeighbor marks a fully cut-off initiator; Skipped marks a
	// scheme that cannot run on this world (e.g. MRC in scale mode).
	NoLiveNeighbor bool `json:"no_live_neighbor,omitempty"`
	Skipped        bool `json:"skipped,omitempty"`
	// Walks are the data-plane packet trajectories for this case, in
	// travel order — the hops the flow's traffic actually rides during
	// recovery. Control-plane packets (RTR's phase-1 collection walk)
	// are a single small packet, not flow-rate traffic, and are
	// excluded; per-link load accounting charges the demand's rate to
	// every hop listed here. Records never carry them.
	Walks []routing.Walk `json:"-"`
}

// Scheme is one registered recovery scheme. Registering it is all a
// scheme needs to be run on cases (RunCase), swept (sweep.KindUtil),
// served (serve) and checked (invariant).
type Scheme interface {
	// Name is the registry key (also the CLI/API spelling).
	Name() string
	// Prepare is the world-build hook: called before the scheme's
	// first Run on a world, it validates requirements against what the
	// world carries (mrc needs an MRC engine) and may build per-world
	// state. It must be cheap and idempotent — dispatch layers call it
	// per (scheme, world) without coordination.
	Prepare(w *World) error
	// Run executes the scheme on one case. Shared per-failure state —
	// the RTR session, the ground-truth tree graded against — comes
	// from the case's State (World.StateOf).
	Run(w *World, c *Case) (Result, error)
}

var (
	regMu sync.RWMutex
	// registry maps a name to the one-scheme set SchemeSet hands out,
	// so a lookup allocates nothing.
	registry = make(map[string][]Scheme)
)

// RegisterScheme adds a scheme under its name. It panics on an empty
// name or a duplicate registration — both are programmer errors at
// init time, not runtime conditions.
func RegisterScheme(s Scheme) {
	name := s.Name()
	if name == "" || name == SchemeAll {
		panic(fmt.Sprintf("sim: RegisterScheme with reserved name %q", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sim: duplicate registration of scheme %q", name))
	}
	registry[name] = []Scheme{s}
}

// LookupScheme returns the scheme registered under name. The error
// lists the known names so flag-parse failures are self-explanatory.
func LookupScheme(name string) (Scheme, error) {
	set, err := SchemeSet(name)
	if err != nil {
		return nil, err
	}
	if len(set) != 1 {
		return nil, fmt.Errorf("%q names a set of schemes, not one", name)
	}
	return set[0], nil
}

// SchemeSet resolves a query's scheme name to the schemes it runs, in
// order: the paper's three for SchemeAll, else the one registered
// scheme. The slice is shared; callers must not modify it.
func SchemeSet(name string) ([]Scheme, error) {
	if name == SchemeAll {
		return paperSchemes, nil
	}
	regMu.RLock()
	set := registry[name]
	regMu.RUnlock()
	if set == nil {
		return nil, fmt.Errorf("unknown scheme %q (registered: %s)", name, strings.Join(SchemeNames(), ", "))
	}
	return set, nil
}

// SchemeNames returns every registered scheme name, sorted.
func SchemeNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PaperSchemes returns the paper's three protocols — RTR, FCP, MRC, in
// that order — the set RunAllN runs and SchemeAll names. The slice is
// shared; callers must not modify it.
func PaperSchemes() []Scheme { return paperSchemes }

var paperSchemes = []Scheme{rtrScheme{}, fcpScheme{}, mrcScheme{}}

func init() {
	for _, s := range paperSchemes {
		RegisterScheme(s)
	}
	RegisterScheme(Spread{K: SpreadK})
}

// The paper's three protocols. RunCase stores each one's typed result
// (RunRTR, RunFCP, RunMRC) in its Outcome field, which Record projects
// onto the CaseRecord the tables aggregate and Outcome.Result onto the
// scheme-independent Result; Run is that projection of RunCase on the
// one scheme.
type (
	rtrScheme struct{}
	fcpScheme struct{}
	mrcScheme struct{}
)

func (rtrScheme) Name() string                            { return SchemeRTR }
func (rtrScheme) Prepare(*World) error                    { return nil }
func (s rtrScheme) Run(w *World, c *Case) (Result, error) { return runOne(w, c, s) }

func (fcpScheme) Name() string                            { return SchemeFCP }
func (fcpScheme) Prepare(*World) error                    { return nil }
func (s fcpScheme) Run(w *World, c *Case) (Result, error) { return runOne(w, c, s) }

func (mrcScheme) Name() string                            { return SchemeMRC }
func (s mrcScheme) Run(w *World, c *Case) (Result, error) { return runOne(w, c, s) }

// Prepare fails on a scale-mode world, which carries no MRC engine:
// asked for by name, mrc refuses instead of silently skipping (under
// SchemeAll it runs and reports Skipped).
func (mrcScheme) Prepare(w *World) error {
	if !w.HasMRC() {
		return fmt.Errorf("scheme mrc unavailable on %s: scale-mode world carries no MRC engine", w.Topo.Name)
	}
	return nil
}

func runOne(w *World, c *Case, s Scheme) (Result, error) {
	o := RunCase(w, c, []Scheme{s}, new(core.Route))
	return o.Result(s.Name()), o.Err
}

// Result projects the named scheme's answer in o onto Result: what that
// scheme's Run returns for the case (the zero Result when it did not
// run).
func (o *Outcome) Result(name string) Result {
	switch name {
	case SchemeRTR:
		r := &o.RTR
		return Result{Delivered: r.Recovered, Optimal: r.Optimal, Stretch: r.Stretch,
			SPCalcs: r.SPCalcs, NoLiveNeighbor: r.NoLiveNeighbor, Walks: walks(r.Phase2)}
	case SchemeFCP:
		r := &o.FCP
		return Result{Delivered: r.Delivered, Optimal: r.Optimal, Stretch: r.Stretch,
			SPCalcs: r.SPCalcs, Walks: walks(r.Walk)}
	case SchemeMRC:
		r := &o.MRC
		return Result{Delivered: r.Delivered, Optimal: r.Optimal, Stretch: r.Stretch,
			Skipped: r.Skipped, Walks: walks(r.Walk)}
	}
	return o.Others[name]
}

// walks keeps the non-empty trajectories (a zero-hop walk carries no
// load and no information).
func walks(ws ...routing.Walk) []routing.Walk {
	out := make([]routing.Walk, 0, len(ws))
	for _, w := range ws {
		if len(w.Records) > 0 {
			out = append(out, w)
		}
	}
	return out
}

// RunCase executes schemes on one case bound to a State (CaseAt, or
// RunAllN's grouping), in order, sharing rt as RTR's route buffer. The
// paper's three fill their typed Outcome fields; any other scheme's
// Result lands in Outcome.Others under its name. The first error stops
// the case (Outcome.Ran ends with the scheme that raised it); Truth is
// attached only when some scheme delivered, i.e. when grading actually
// read the tree.
func RunCase(w *World, c *Case, schemes []Scheme, rt *core.Route) Outcome {
	o := Outcome{Case: c, Ran: schemes}
	delivered := false
	for i, s := range schemes {
		var err error
		switch s.(type) {
		case rtrScheme:
			o.RTR, err = runRTR(w, c, rt, nil)
		case fcpScheme:
			o.FCP, err = RunFCP(w, c, nil)
		case mrcScheme:
			o.MRC, err = RunMRC(w, c, nil)
		default:
			var r Result
			if r, err = s.Run(w, c); err == nil {
				if o.Others == nil {
					o.Others = make(map[string]Result, 1)
				}
				o.Others[s.Name()] = r
				delivered = delivered || r.Delivered
			}
		}
		if err != nil {
			o.Err, o.Ran = err, schemes[:i+1]
			break
		}
	}
	if delivered || o.RTR.Recovered || o.FCP.Delivered || o.MRC.Delivered {
		o.Truth = w.StateOf(c).Truth(c.Initiator)
	}
	return o
}
