package invariant

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// CheckUtil extends the loss-conservation oracle to the traffic
// workload's load columns: offered flow must be conserved (delivered
// plus dropped), every utilization column must be internally ordered
// (peak >= p99 >= p50 >= 0, mean <= peak), and the pre-failure column
// must sit at the calibrated heavy-load operating point — calibration
// puts the clean peak exactly at the target, so a drifted value means
// the baseline and the capacity disagree about the same matrix.
func CheckUtil(res traffic.Result, target float64) []Violation {
	var vs []Violation
	bad := func(check, format string, args ...any) {
		vs = append(vs, Violation{
			Check: check,
			Repro: fmt.Sprintf("topo=%s scheme=%s pairs=%d scenarios=%d",
				res.Topology, res.Scheme, res.Pairs, res.Scenarios),
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if !conserves(res.Flows.Offered, res.Flows.Delivered, res.Flows.Dropped) {
		bad("util/conservation", "offered %.6f != delivered %.6f + dropped %.6f",
			res.Flows.Offered, res.Flows.Delivered, res.Flows.Dropped)
	}
	for _, col := range []struct {
		name string
		u    traffic.Util
	}{{"pre", res.Pre}, {"post", res.Post}} {
		u := col.u
		if u.P50 < 0 || u.Peak < u.P99-1e-12 || u.P99 < u.P50-1e-12 || u.Mean > u.Peak+1e-12 {
			bad("util/column-order", "%s column out of order: peak=%.6f p99=%.6f p50=%.6f mean=%.6f",
				col.name, u.Peak, u.P99, u.P50, u.Mean)
		}
	}
	if target > 0 && !sim.CostEqual(res.Pre.Peak, target) {
		bad("util/calibration", "pre-failure peak %.9f, calibrated target %.9f", res.Pre.Peak, target)
	}
	return vs
}
