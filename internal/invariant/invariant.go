// Package invariant is a pluggable oracle layer that checks
// paper-level invariants on live simulator outputs: the guarantees the
// paper states (Theorem 1 walk termination, Theorem 2 recovery-path
// optimality, Constraints 1/2 non-crossing) and the ones the baselines
// lean on (FCP and MRC loop-freeness and configuration validity),
// plus packet-accounting conservation in the loss model.
//
// The existing differential tests only compare our fast paths against
// our slow paths; this package compares both against independent
// oracles — most checks re-derive the expected answer with a
// deliberately separate O(n²) Dijkstra (no code shared with
// internal/spt) and with direct replays of the paper's admissibility
// rules. It is wired in at three layers: package/property tests (every
// bundled topology × random failure circles, plus fuzzing), the
// opt-in `-check` flag of cmd/rtrsim and sweep.Spec.Check (fail fast
// with a minimized repro string), and the CI checked-sweep smoke.
// DESIGN.md §9 maps every check to its paper anchor and documents the
// amendments under which it is intentionally relaxed.
package invariant

import (
	"fmt"
	"os"
	"strings"
	"sync"

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

// Repro builds the minimized reproduction string for one case: the
// topology name (synthesis is seed-deterministic), the failure
// instance in failure.ParseInstance's grammar (any area kind or link
// set, not just disks), the generator spec when the scenario came from
// one, and the paper's case triple (initiator, destination, failure
// area) plus the trigger link.
func Repro(topoName string, c *sim.Case) string {
	var b strings.Builder
	fmt.Fprintf(&b, "topo=%s init=%d dst=%d nh=%d trigger=%d failure=%s",
		topoName, c.Initiator, c.Dst, c.NextHop, c.Trigger, c.Scenario.Desc())
	if spec := c.Scenario.GenSpec(); spec != "" {
		fmt.Fprintf(&b, " gen=%s", spec)
	}
	return b.String()
}

// Checker checks simulator outputs for one world. It is stateless
// beyond the world reference and size gate, and safe for
// concurrent use.
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

// OracleEnabled reports whether the O(n²) oracle checks run on this
// checker's world.
func (k *Checker) OracleEnabled() bool {
	limit := k.MaxOracleNodes
	if limit == 0 {
		limit = DefaultMaxOracleNodes
	}
	return limit < 0 || k.W.Topo.G.NumNodes() <= limit
}

// oracle returns oracleDists(root, down) when the graph is within the
// oracle gate, or (nil, false) — logging the skip reason exactly once
// per checker — when it is not.
func (k *Checker) oracle(root graph.NodeID, down graph.Denied) ([]float64, bool) {
	if !k.OracleEnabled() {
		k.oracleNote.Do(func() {
			limit := k.MaxOracleNodes
			if limit == 0 {
				limit = DefaultMaxOracleNodes
			}
			msg := fmt.Sprintf("invariant: %s (%d nodes): O(n²) oracle checks skipped (gate %d nodes): "+
				"rtr/early-discard-wrong, rtr/route-unreachable, rtr/route-suboptimal, rtr/theorem2, "+
				"fcp/drop-premature, truth/delivered-irrecoverable, truth/delivery-beats-shortest; "+
				"structural checks still run",
				k.W.Topo.Name, k.W.Topo.G.NumNodes(), limit)
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

func (k *Checker) violation(c *sim.Case, check, format string, args ...any) Violation {
	return Violation{
		Check:  check,
		Repro:  Repro(k.W.Topo.Name, c),
		Detail: fmt.Sprintf(format, args...),
	}
}

// CheckCase checks the paper's three protocols on one case
// (CheckSchemes over sim.PaperSchemes).
func (k *Checker) CheckCase(c *sim.Case) []Violation {
	return k.CheckSchemes(c, sim.PaperSchemes())
}

// CheckSchemes re-runs each scheme on one case deterministically (all
// protocol code is deterministic given the case) and checks every
// applicable invariant. The paper's three get their dedicated checks
// (fresh RTR session, fresh FCP and MRC recoveries); every other
// scheme gets the contract any Result must keep (CheckResult). A
// scheme whose Prepare rejects the world has nothing to check. It
// returns all violations found, nil when clean.
func (k *Checker) CheckSchemes(c *sim.Case, schemes []sim.Scheme) []Violation {
	var vs []Violation
	for _, s := range schemes {
		if s.Prepare(k.W) != nil {
			continue
		}
		if check := paperChecks[s.Name()]; check != nil {
			vs = append(vs, check(k, c)...)
		} else if r, err := s.Run(k.W, c); err == nil {
			vs = append(vs, k.CheckResult(c, s.Name(), r)...)
		}
	}
	return vs
}

// paperChecks are the dedicated checks of the paper's three protocols,
// which look inside their mechanics (the collection walk, the carried
// failures, the backup configurations).
var paperChecks = map[string]func(*Checker, *sim.Case) []Violation{
	sim.SchemeRTR: (*Checker).checkRTRCase,
	sim.SchemeFCP: (*Checker).checkFCPCase,
	sim.SchemeMRC: (*Checker).checkMRCCase,
}

// CheckCases runs CheckCase over every case and returns the first
// violation as an error — the fail-fast form the sweep engine and the
// -check flag use. Nil when every case is clean.
func (k *Checker) CheckCases(cases []*sim.Case) error {
	for _, c := range cases {
		if vs := k.CheckCase(c); len(vs) > 0 {
			return vs[0]
		}
	}
	return nil
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
		if !costEqual(res.SavedPercent, want) {
			bad("loss/saved-percent", "saved %.6f%%, drop totals imply %.6f%%", res.SavedPercent, want)
		}
	}
	return vs
}

func conserves(offered, delivered, dropped float64) bool {
	return costEqual(offered, delivered+dropped)
}

// costEqual compares accumulated float totals with a relative
// tolerance (mirrors the harness's grading tolerance: equal-cost sums
// can differ in summation order).
func costEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > scale {
		scale = b
	}
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-9*(1+scale)
}
