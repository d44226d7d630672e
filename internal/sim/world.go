// Package sim is the experiment harness: it generates the paper's test
// cases (deduplicated recoverable and irrecoverable recovery
// instances), holds the recovery-scheme registry (scheme.go) through
// which sweeps, the serving layer and the oracle run any scheme, runs
// RTR, FCP and MRC on the cases with full metric accounting, and
// provides one runner per table and figure of the paper's evaluation
// (Tables II-IV, Figs. 7-13).
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fcp"
	"repro/internal/mrc"
	"repro/internal/routing"
	"repro/internal/spt"
	"repro/internal/topology"
)

// World bundles every per-topology artifact the experiments share:
// the topology, its cross-link index, converged routing tables, and
// the three recovery engines. A World is immutable after construction
// and safe for concurrent use.
type World struct {
	Topo   *topology.Topology
	CI     *topology.CrossIndex
	Tables *routing.Tables
	RTR    *core.RTR
	FCP    *fcp.FCP
	// MRC is nil on scale-mode worlds (see NewWorldFromConfig): its
	// k*n backup-configuration precomputation is quadratic-plus and
	// infeasible past Rocketfuel sizes. Runners skip it via HasMRC.
	MRC *mrc.MRC
}

// HasMRC reports whether this world carries an MRC engine. Scale-mode
// worlds drop it; MRCResult.Skipped marks their outcomes.
func (w *World) HasMRC() bool { return w.MRC != nil }

// Converged returns a fresh shared post-failure state of sc on this
// world. Whoever wants the sharing owns the State and builds its cases
// on it (CaseAt): a serve cache entry, a traffic replay, one RunAllN.
func (w *World) Converged(sc *failure.Scenario) *converged.State {
	return converged.New(w.Topo, w.Tables, w.RTR, sc)
}

// StateOf returns the State c runs on: the shared one it was built on
// or, for an enumerated case (which carries none, see Case.State), a
// fresh one that shares nothing — the case pays for its own session
// and truth tree.
func (w *World) StateOf(c *Case) *converged.State {
	if c.State != nil {
		return c.State
	}
	return w.Converged(c.Scenario)
}

// NewWorld synthesizes the named Table II topology with the given seed
// and builds all engines on it.
func NewWorld(asName string, seed int64) (*World, error) {
	p, ok := topology.ParamsFor(asName)
	if !ok {
		return nil, fmt.Errorf("sim: unknown topology %q", asName)
	}
	topo, err := topology.Generate(p, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return NewWorldFrom(topo)
}

// NewWorldPhase2 is NewWorld behind the former phase-2 engine
// selector, kept with its signature for the benchmark harness. Phase 2
// has one engine: any e other than spt.EngineDijkstra is an error.
func NewWorldPhase2(asName string, seed int64, e spt.Engine) (*World, error) {
	if e != spt.EngineDijkstra {
		return nil, fmt.Errorf("sim: unknown phase-2 engine %d", e)
	}
	return NewWorld(asName, seed)
}

// NewWorldFrom builds a World for an existing topology. The converged
// routing tables are built first, then RTR, whose clean-tree cache
// feeds FCP's incremental warm starts; MRC warm-starts its k*n
// configuration trees from the clean reverse tables.
func NewWorldFrom(topo *topology.Topology) (*World, error) {
	return NewWorldFromConfig(topo, WorldConfig{})
}

// ScaleWorldNodes is the node count at which NewWorldFromConfig
// switches to scale mode on its own: above it MRC's backup-
// configuration matrix (k*n trees of n entries each) stops fitting in
// time and memory budgets.
const ScaleWorldNodes = 1 << 14

// WorldConfig selects how a World is constructed.
type WorldConfig struct {
	// Scale forces the memory-bounded scale construction: no MRC
	// engine. When false, scale mode still engages automatically for
	// graphs of at least ScaleWorldNodes nodes.
	Scale bool
	// Log, when non-nil, receives one line per scale-mode concession
	// (what was skipped, and why).
	Log func(msg string)
}

// NewWorldFromConfig builds a World for an existing topology under an
// explicit configuration. Scale mode makes one concession to
// feasibility at 10^5 nodes: MRC is dropped — its precomputation
// assigns every node to one of k backup configurations with an
// O(n(n+m)) scan and then carries k*n configuration trees, both
// hopeless at this size. RTR and FCP (the paper's subjects) run in
// full.
//
// The concession is reported through cfg.Log so a sweep's output
// states what was skipped rather than silently narrowing.
func NewWorldFromConfig(topo *topology.Topology, cfg WorldConfig) (*World, error) {
	scale := cfg.Scale || topo.G.NumNodes() >= ScaleWorldNodes
	ci := topology.BuildCrossIndex(topo)
	tables := routing.ComputeTables(topo)
	r := core.New(topo, ci)
	var m *mrc.MRC
	if scale {
		if cfg.Log != nil {
			cfg.Log(fmt.Sprintf("sim: %s (%d nodes): scale mode: MRC disabled (k*n backup-configuration precomputation infeasible at this size)",
				topo.Name, topo.G.NumNodes()))
		}
	} else {
		var err error
		m, err = mrc.NewWarm(topo, 0, tables)
		if err != nil {
			return nil, fmt.Errorf("sim: building MRC for %s: %w", topo.Name, err)
		}
	}
	return &World{
		Topo:   topo,
		CI:     ci,
		Tables: tables,
		RTR:    r,
		FCP:    fcp.New(topo, r.CleanTree),
		MRC:    m,
	}, nil
}
