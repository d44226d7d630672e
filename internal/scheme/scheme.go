// Package scheme is the recovery-scheme registry: every recovery
// protocol the harness can grade — the paper's RTR, the FCP and MRC
// baselines, and the congestion-aware rtr-spread — registers here
// under a stable name with a Prepare hook that vets a world and a
// per-case runner. Utilization sweeps (sweep.KindUtil), the congestion
// experiment and serve's queries for any registered scheme dispatch
// through it by name; serve's rtr/fcp/mrc/all answers, the case sweeps
// and sim.Outcome call the sim runners directly.
//
// The builtin schemes are thin projections over the sim runners and
// stay bit-identical to them — the differential tests in this package
// assert it on every bundled topology.
package scheme

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/routing"
	"repro/internal/sim"
)

// Result is the scheme-independent projection of one case outcome:
// what every registered scheme can report about a recovery attempt,
// regardless of its internal mechanics. Load accounting charges the
// Walks; reports read the grading fields.
type Result struct {
	// Delivered reports end-to-end delivery under the ground-truth
	// failure.
	Delivered bool
	// Optimal reports the delivered path matched the true post-failure
	// shortest path cost; Stretch is the delivered cost over that
	// optimum (1 when optimal, 0 when not delivered or ungraded).
	Optimal bool
	Stretch float64
	// SPCalcs counts shortest-path calculations (the paper's
	// computational-overhead metric).
	SPCalcs int
	// NoLiveNeighbor marks a fully cut-off initiator; Skipped marks a
	// scheme that cannot run on this world (e.g. MRC in scale mode).
	NoLiveNeighbor bool
	Skipped        bool
	// Walks are the data-plane packet trajectories for this case, in
	// travel order — the hops the flow's traffic actually rides during
	// recovery. Control-plane packets (RTR's phase-1 collection walk)
	// are a single small packet, not flow-rate traffic, and are
	// excluded; per-link load accounting charges the demand's rate to
	// every hop listed here.
	Walks []routing.Walk
}

// Scheme is one registered recovery scheme.
type Scheme interface {
	// Name is the registry key (also the CLI/API spelling).
	Name() string
	// Prepare is the world-build hook: called before the scheme's
	// first Run on a world, it validates requirements against what the
	// world carries (mrc needs an MRC engine) and may build per-world
	// state. It must be cheap and idempotent — dispatch layers call it
	// per (scheme, world) without coordination.
	Prepare(w *sim.World) error
	// Run executes the scheme on one case. Shared per-failure state —
	// the RTR session, the ground-truth tree graded against — comes
	// from the case's State (sim.World.StateOf).
	Run(w *sim.World, c *sim.Case) (Result, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Scheme)
)

// Register adds a scheme under its name. It panics on an empty name or
// a duplicate registration — both are programmer errors at init time,
// not runtime conditions.
func Register(s Scheme) {
	name := s.Name()
	if name == "" {
		panic("scheme: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scheme: duplicate registration of %q", name))
	}
	registry[name] = s
}

// Get returns the scheme registered under name. The error lists the
// known names so flag-parse failures are self-explanatory.
func Get(name string) (Scheme, error) {
	regMu.RLock()
	s := registry[name]
	regMu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("unknown scheme %q (registered: %s)", name, namesString())
	}
	return s, nil
}

// Names returns every registered scheme name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func namesString() string {
	names := Names()
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
