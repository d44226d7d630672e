// Package invariant is a pluggable oracle layer that checks
// paper-level invariants on live simulator outputs: the guarantees the
// paper states (Theorem 1 walk termination, Theorem 2 recovery-path
// optimality, Constraints 1/2 non-crossing) and the ones the baselines
// lean on (FCP and MRC loop-freeness and configuration validity),
// plus packet-accounting conservation in the loss model.
//
// The differential tests compare our fast paths against our slow
// paths; this package compares the answers the runners return against
// independent oracles. Its one entry point, Checker.Check, reads a
// sim.Outcome — the walk RTR took and the session it rode, the header
// FCP carried, the configuration MRC switched to — and re-derives the
// expected answer with a deliberately separate O(n²) Dijkstra (no code
// shared with internal/spt) and with direct replays of the paper's
// admissibility rules; it runs no protocol itself. Callers check the
// outcome they already hold: package/property tests (every bundled
// topology × random failures, plus fuzzing), the opt-in `-check` of
// cmd/rtrsim and cmd/rtrsimd and sweep.Spec.Check (fail fast with a
// minimized repro string), and the CI checked-sweep smoke. DESIGN.md
// §9 maps every check to its paper anchor and documents the amendments
// under which it is intentionally relaxed.
package invariant

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Violation is one observed breach of a paper-level invariant.
type Violation struct {
	// Check is the stable identifier of the violated invariant,
	// e.g. "rtr/route-suboptimal" (see DESIGN.md §9 for the list).
	Check string
	// Repro is a minimized reproduction string: topology, failure
	// areas, and the case triple, enough to rebuild and rerun the
	// exact case that failed.
	Repro string
	// Detail explains the breach with the offending values.
	Detail string
}

// Error implements error, so a Violation can fail a sweep fast.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant %s: %s [%s]", v.Check, v.Detail, v.Repro)
}

// Checker checks simulator outputs for one world. It is stateless
// beyond the world reference, the size gate and its one-time notice,
// and safe for concurrent use.
type Checker struct {
	W *sim.World
	// MaxOracleNodes gates the independent O(n²) Dijkstra oracle: on
	// graphs with more nodes, every check that needs a full oracle
	// distance vector is skipped (with a one-time logged reason)
	// instead of burning hours per case at 10^5 nodes. All structural
	// checks — walk contiguity, header discipline, Constraint 1/2
	// replay, route/configuration validity — still run; only the
	// optimality and reachability cross-checks against oracleDists are
	// dropped. Zero means DefaultMaxOracleNodes; negative disables the
	// gate (the oracle always runs).
	MaxOracleNodes int
	// Log receives the one-time oracle-skip notice; nil logs to
	// standard error (a silent narrowing of a checked sweep would
	// masquerade as full coverage).
	Log func(msg string)

	oracleNote sync.Once
}

// DefaultMaxOracleNodes is the default oracle gate. Every Table II
// topology is two orders of magnitude below it; the quadratic oracle
// on 8192 nodes is ~10^8 scan steps per distance vector — seconds,
// the acceptable ceiling for opt-in checking.
const DefaultMaxOracleNodes = 8192

// New returns a Checker for w.
func New(w *sim.World) *Checker { return &Checker{W: w} }

// oracleEnabled reports whether the O(n²) oracle checks run on this
// checker's world.
func (k *Checker) oracleEnabled() bool {
	return k.gate() < 0 || k.W.Topo.G.NumNodes() <= k.gate()
}

// gate is MaxOracleNodes with the zero value resolved.
func (k *Checker) gate() int {
	if k.MaxOracleNodes == 0 {
		return DefaultMaxOracleNodes
	}
	return k.MaxOracleNodes
}

// oracle returns oracleDists(root, down) when the graph is within the
// oracle gate, or (nil, false) — logging the skip reason exactly once
// per checker — when it is not.
func (k *Checker) oracle(root graph.NodeID, down graph.Denied) ([]float64, bool) {
	if !k.oracleEnabled() {
		k.oracleNote.Do(func() {
			msg := fmt.Sprintf("invariant: %s (%d nodes): O(n²) oracle checks skipped (gate %d nodes): "+
				"rtr/early-discard-wrong, rtr/route-unreachable, rtr/route-suboptimal, rtr/theorem2, "+
				"fcp/drop-premature, truth/delivered-irrecoverable, truth/delivery-beats-shortest; "+
				"structural checks still run",
				k.W.Topo.Name, k.W.Topo.G.NumNodes(), k.gate())
			if k.Log != nil {
				k.Log(msg)
			} else {
				fmt.Fprintln(os.Stderr, msg)
			}
		})
		return nil, false
	}
	return oracleDists(k.W.Topo.G, root, down), true
}

// violation builds a Violation of check on c. Its repro string names
// the topology (synthesis is seed-deterministic), the paper's case
// triple (initiator, destination, failure) plus the trigger link, the
// failure instance in failure.ParseInstance's grammar (any area kind or
// link set), and the generator spec when the scenario came from one.
func (k *Checker) violation(c *sim.Case, check, format string, args ...any) Violation {
	repro := fmt.Sprintf("topo=%s init=%d dst=%d nh=%d trigger=%d failure=%s",
		k.W.Topo.Name, c.Initiator, c.Dst, c.NextHop, c.Trigger, c.Scenario.Desc())
	if spec := c.Scenario.GenSpec(); spec != "" {
		repro += " gen=" + spec
	}
	return Violation{Check: check, Repro: repro, Detail: fmt.Sprintf(format, args...)}
}

// Check checks every scheme answer in o, an outcome sim.RunCase
// returned: the paper's three get their dedicated checks, which read
// the answer's mechanics (the collection walk and route of the session
// RTR rode, FCP's carried failures, MRC's backup configuration), and
// any other scheme gets checkResult, the contract every sim.Result
// keeps. Nothing is re-run: the checks compare what the runners
// returned with the oracle's own Dijkstra and rule replays. The error
// that stopped an errored case is judged instead of the scheme that
// raised it; the schemes after it returned nothing to check. It
// returns all violations found, nil when clean.
func (k *Checker) Check(o sim.Outcome) []Violation {
	c := o.Case
	var vs []Violation
	for i, s := range o.Ran {
		name := s.Name()
		if o.Err != nil && i == len(o.Ran)-1 {
			return append(vs, k.checkErr(c, name, o.Err)...)
		}
		switch name {
		case sim.SchemeRTR:
			vs = append(vs, k.checkRTR(c, o.RTR)...)
		case sim.SchemeFCP:
			vs = append(vs, k.checkFCP(c, o.FCP)...)
		case sim.SchemeMRC:
			vs = append(vs, k.checkMRC(c, o.MRC)...)
		default:
			vs = append(vs, k.checkResult(c, name, o.Others[name])...)
		}
	}
	return vs
}

// checkErr judges the error a scheme stopped a case with: RTR's failed
// collection (checkCollectErr); FCP's recompute bound, whose breach
// means an iteration recorded no new failure; MRC's dead initiator,
// which no case has. Another scheme's refusal is its own business.
func (k *Checker) checkErr(c *sim.Case, scheme string, err error) []Violation {
	switch scheme {
	case sim.SchemeRTR:
		return k.checkCollectErr(c, err)
	case sim.SchemeFCP:
		return []Violation{k.violation(c, "fcp/recompute-bound", "%v", err)}
	case sim.SchemeMRC:
		return []Violation{k.violation(c, "mrc/recover-failed", "%v", err)}
	}
	return nil
}

// CheckCase runs the paper's three protocols on one case, bound to a
// State as RunAllN binds it (the case's own, or a fresh one of its
// scenario), and checks the outcome.
func (k *Checker) CheckCase(c *sim.Case) []Violation {
	bound := *c
	bound.State = k.W.StateOf(c)
	var rt core.Route
	o := sim.RunCase(k.W, &bound, sim.PaperSchemes(), &rt)
	o.Case = c
	return k.Check(o)
}

// CheckLoss verifies the loss model's packet-accounting conservation:
// in both columns (no recovery, with RTR), offered packets must equal
// delivered plus dropped, and the saved percentage must follow from
// the two drop totals.
func CheckLoss(res sim.LossResult) []Violation {
	var vs []Violation
	bad := func(check, format string, args ...any) {
		vs = append(vs, Violation{
			Check:  check,
			Repro:  fmt.Sprintf("topo=%s scenarios=%d", res.AS, res.Scenarios),
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if !conserves(res.Offered, res.DeliveredNoRecovery, res.DroppedNoRecovery) {
		bad("loss/conservation-norec", "offered %.3f != delivered %.3f + dropped %.3f",
			res.Offered, res.DeliveredNoRecovery, res.DroppedNoRecovery)
	}
	if !conserves(res.Offered, res.DeliveredWithRTR, res.DroppedWithRTR) {
		bad("loss/conservation-rtr", "offered %.3f != delivered %.3f + dropped %.3f",
			res.Offered, res.DeliveredWithRTR, res.DroppedWithRTR)
	}
	if res.DroppedNoRecovery > 0 {
		want := 100 * (1 - res.DroppedWithRTR/res.DroppedNoRecovery)
		if !sim.CostEqual(res.SavedPercent, want) {
			bad("loss/saved-percent", "saved %.6f%%, drop totals imply %.6f%%", res.SavedPercent, want)
		}
	}
	return vs
}

func conserves(offered, delivered, dropped float64) bool {
	return sim.CostEqual(offered, delivered+dropped)
}
