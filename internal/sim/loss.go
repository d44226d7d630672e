package sim

import (
	"math/rand"
	"time"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/igp"
)

// LossConfig parameterizes the convergence packet-loss experiment —
// the quantitative version of the paper's introduction ("disconnection
// of an OC-192 link for 10 seconds leads to about 12 million packets
// being dropped").
type LossConfig struct {
	// Scenarios is the number of random failure areas to average over.
	Scenarios int
	// PacketsPerSecond is the traffic rate of each routing path.
	// The paper's OC-192 example is 1.25M packets/s for 1000-byte
	// packets; per-path rates are much lower; the default 10,000 pkt/s
	// models an aggregate flow per source/destination pair.
	PacketsPerSecond float64
	Seed             int64
	Timers           igp.Timers
}

// LossResult aggregates convergence-window packet loss with and
// without RTR over the sampled failure scenarios.
type LossResult struct {
	AS        string
	Scenarios int
	// MeanConvergence is the average time until all reachable routers
	// converged.
	MeanConvergence time.Duration
	// FailedPaths counts failed routing paths with live sources
	// (recoverable + irrecoverable) across all scenarios.
	FailedPaths      int
	RecoverablePaths int
	// Offered is the total traffic offered on failed paths over their
	// convergence windows — the conserved quantity: in each column,
	// delivered + dropped must equal it exactly.
	Offered float64
	// DeliveredNoRecovery is the traffic delivered without recovery
	// (zero by construction: every failed path drops its whole window).
	DeliveredNoRecovery float64
	// DeliveredWithRTR is the traffic RTR delivers: recovered paths
	// deliver everything after the detection window.
	DeliveredWithRTR float64
	// DroppedNoRecovery is the packet loss without any recovery: every
	// failed path drops its traffic for the whole convergence window.
	DroppedNoRecovery float64
	// DroppedWithRTR keeps only the loss RTR cannot avoid:
	// irrecoverable paths (no scheme can deliver them), recoverable
	// paths whose recovery failed, and the brief detection window
	// before the initiator reacts.
	DroppedWithRTR float64
	// SavedPercent is the headline reduction.
	SavedPercent float64
}

// PacketLoss runs the convergence packet-loss experiment for one
// topology.
func PacketLoss(w *World, cfg LossConfig) LossResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := LossResult{AS: w.Topo.Name, Scenarios: cfg.Scenarios}
	var convSum time.Duration

	for s := 0; s < cfg.Scenarios; s++ {
		sc := failure.RandomScenario(w.Topo, rng)
		if !sc.HasFailures() {
			continue
		}
		conv := igp.Converge(sc, cfg.Timers)
		convSum += conv.Total
		window := conv.Total.Seconds()
		detect := cfg.Timers.Detection.Seconds()

		// Per-case RTR outcomes, shared by every failed path that
		// funnels into the same (initiator, destination).
		rec, irr := CasesFromScenario(w, sc)
		type key struct{ i, d graph.NodeID }
		outcome := make(map[key]Outcome, len(rec))
		for _, o := range RunAll(w, rec) {
			outcome[key{o.Case.Initiator, o.Case.Dst}] = o
		}

		count := func(cases []*Case, recoverable bool) {
			for _, c := range cases {
				// Weight each case by the number of failed paths that
				// use it: every live source whose converged path
				// toward c.Dst first blocks at c.Initiator. Counting
				// them exactly is the Fig. 11 enumeration; a uniform
				// weight of 1 per (initiator, destination) case keeps
				// this experiment cheap and unbiased across schemes.
				res.FailedPaths++
				res.Offered += cfg.PacketsPerSecond * window
				if !recoverable {
					// Nothing can deliver these packets; both columns
					// lose the full window.
					res.DroppedNoRecovery += cfg.PacketsPerSecond * window
					res.DroppedWithRTR += cfg.PacketsPerSecond * window
					continue
				}
				res.RecoverablePaths++
				res.DroppedNoRecovery += cfg.PacketsPerSecond * window
				o := outcome[key{c.Initiator, c.Dst}]
				if o.RTR.Recovered {
					// RTR holds packets during phase 1 (delayed, not
					// dropped); only the detection window is lost.
					res.DroppedWithRTR += cfg.PacketsPerSecond * detect
					res.DeliveredWithRTR += cfg.PacketsPerSecond * (window - detect)
				} else {
					res.DroppedWithRTR += cfg.PacketsPerSecond * window
				}
			}
		}
		count(rec, true)
		count(irr, false)
	}

	if cfg.Scenarios > 0 {
		res.MeanConvergence = convSum / time.Duration(cfg.Scenarios)
	}
	if res.DroppedNoRecovery > 0 {
		res.SavedPercent = 100 * (1 - res.DroppedWithRTR/res.DroppedNoRecovery)
	}
	return res
}

// GoodputPoint samples the fraction of failed-path flows delivered at
// time t after the failure, with and without RTR.
type GoodputPoint struct {
	T          time.Duration
	NoRecovery float64
	WithRTR    float64
}

// GoodputSeries computes flow availability over time, averaged over
// random failure scenarios. Without recovery, a flow returns when
// every router on its post-failure path has converged; with RTR,
// recovered flows return as soon as the initiator detects the failure
// and finishes the collection walk, while unrecovered flows wait for
// convergence like everyone else. Irrecoverable flows never return in
// either column.
func GoodputSeries(w *World, cfg LossConfig, step time.Duration) []GoodputPoint {
	rng := rand.New(rand.NewSource(cfg.Seed))

	type flow struct {
		noRecAt time.Duration // when IGP convergence restores the flow
		rtrAt   time.Duration // when RTR restores it (or noRecAt)
		never   bool          // irrecoverable
	}
	var flows []flow
	var horizon time.Duration

	for s := 0; s < cfg.Scenarios; s++ {
		sc := failure.RandomScenario(w.Topo, rng)
		if !sc.HasFailures() {
			continue
		}
		conv := igp.Converge(sc, cfg.Timers)
		if conv.Total > horizon {
			horizon = conv.Total
		}
		rec, irr := CasesFromScenario(w, sc)
		outs := RunAll(w, rec)
		for _, o := range outs {
			if o.Err != nil {
				continue
			}
			var f flow
			f.noRecAt, f.rtrAt = restoreTimes(w, conv, cfg.Timers, o)
			if f.rtrAt > f.noRecAt {
				f.rtrAt = f.noRecAt // IGP got there first
			}
			flows = append(flows, f)
		}
		for range irr {
			flows = append(flows, flow{never: true})
		}
	}
	if len(flows) == 0 {
		return nil
	}

	var out []GoodputPoint
	for t := time.Duration(0); t <= horizon+step; t += step {
		var noRec, rtr int
		for _, f := range flows {
			if f.never {
				continue
			}
			if t >= f.noRecAt {
				noRec++
			}
			if t >= f.rtrAt {
				rtr++
			}
		}
		out = append(out, GoodputPoint{
			T:          t,
			NoRecovery: float64(noRec) / float64(len(flows)),
			WithRTR:    float64(rtr) / float64(len(flows)),
		})
	}
	return out
}

// restoreTimes is the model of one recoverable case's flow: noRecAt
// is when IGP convergence restores it (pathConvergence), rtrAt when
// RTR does — detection plus the collection walk, after which held
// packets leave on the recovery path — or noRecAt when RTR did not
// recover the case. rtrAt is not clamped to noRecAt.
func restoreTimes(w *World, conv *igp.Convergence, timers igp.Timers, o Outcome) (noRecAt, rtrAt time.Duration) {
	noRecAt = pathConvergence(w, conv, o)
	if !o.RTR.Recovered {
		return noRecAt, noRecAt
	}
	return noRecAt, timers.Detection + o.RTR.Phase1.Duration()
}

// pathConvergence estimates when IGP convergence restores a flow: the
// latest convergence time among the routers on the post-failure
// shortest path from the initiator to the destination. The outcome's
// shared truth tree serves when grading built one.
func pathConvergence(w *World, conv *igp.Convergence, o Outcome) time.Duration {
	c := o.Case
	tree := o.Truth
	if tree == nil {
		tree = w.StateOf(c).Truth(c.Initiator)
	}
	nodes, ok := tree.PathNodes(c.Dst)
	if !ok {
		return conv.Total
	}
	var latest time.Duration
	for _, v := range nodes {
		if conv.RouterTime[v] > latest {
			latest = conv.RouterTime[v]
		}
	}
	if latest == 0 {
		latest = conv.Total
	}
	return latest
}
