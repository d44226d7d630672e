package scheme

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/sim"
)

// Builtin scheme names (also their CLI/API spellings).
const (
	NameRTR    = "rtr"
	NameFCP    = "fcp"
	NameMRC    = "mrc"
	NameSpread = "rtr-spread"
)

func init() {
	Register(rtrScheme{})
	Register(fcpScheme{})
	Register(mrcScheme{})
	Register(spreadScheme{k: spreadK})
}

// walks wraps the non-empty trajectories (a zero-hop walk carries no
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

// rtrScheme is the paper's two-phase recovery, projected from
// sim.RunRTR verbatim.
type rtrScheme struct{}

func (rtrScheme) Name() string             { return NameRTR }
func (rtrScheme) Prepare(*sim.World) error { return nil }

func (rtrScheme) Run(w *sim.World, c *sim.Case) (Result, error) {
	r, err := sim.RunRTR(w, c, nil)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Delivered:      r.Recovered,
		Optimal:        r.Optimal,
		Stretch:        r.Stretch,
		SPCalcs:        r.SPCalcs,
		NoLiveNeighbor: r.NoLiveNeighbor,
		Walks:          walks(r.Phase2),
	}, nil
}

// fcpScheme is the failure-carrying-packets baseline.
type fcpScheme struct{}

func (fcpScheme) Name() string             { return NameFCP }
func (fcpScheme) Prepare(*sim.World) error { return nil }

func (fcpScheme) Run(w *sim.World, c *sim.Case) (Result, error) {
	r, err := sim.RunFCP(w, c, nil)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Delivered: r.Delivered,
		Optimal:   r.Optimal,
		Stretch:   r.Stretch,
		SPCalcs:   r.SPCalcs,
		Walks:     walks(r.Walk),
	}, nil
}

// mrcScheme is the multiple-routing-configurations baseline. Its
// Prepare fails on a scale-mode world, which carries no MRC engine,
// instead of silently skipping.
type mrcScheme struct{}

func (mrcScheme) Name() string { return NameMRC }

func (mrcScheme) Prepare(w *sim.World) error {
	if !w.HasMRC() {
		return fmt.Errorf("scheme mrc unavailable on %s: scale-mode world carries no MRC engine", w.Topo.Name)
	}
	return nil
}

func (mrcScheme) Run(w *sim.World, c *sim.Case) (Result, error) {
	r, err := sim.RunMRC(w, c, nil)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Delivered: r.Delivered,
		Optimal:   r.Optimal,
		Stretch:   r.Stretch,
		Skipped:   r.Skipped,
		Walks:     walks(r.Walk),
	}, nil
}
