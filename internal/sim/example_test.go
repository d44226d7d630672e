package sim_test

import (
	"fmt"
	"time"

	"repro/internal/failure"
	"repro/internal/geom"
	"repro/internal/igp"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A hurricane-sized failure: one disk of radius 300 (the paper's upper
// bound) centred on the AS209 analogue's centre of mass. Every router
// whose next hop the disk cut initiates recovery, and RunAll grades
// RTR, FCP and MRC on each recoverable (initiator, destination) case.
func ExampleRunAll() {
	w, err := sim.NewWorld("AS209", 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	var sum geom.Point
	for _, c := range w.Topo.Coords {
		sum = sum.Add(c)
	}
	n := float64(len(w.Topo.Coords))
	area := geom.Disk{Center: geom.Point{X: sum.X / n, Y: sum.Y / n}, Radius: 300}
	sc := failure.NewScenario(w.Topo, area)
	rec, irr := sim.CasesFromScenario(w, sc)
	fmt.Printf("%d routers and %d links down: %d recoverable, %d irrecoverable cases\n",
		sc.NumFailedNodes(), sc.NumFailedLinks(), len(rec), len(irr))

	var rtr, fcp, mrc stats.Rate
	for _, o := range sim.RunAll(w, rec) {
		if o.Err != nil {
			fmt.Println(o.Err)
			return
		}
		rtr.Observe(o.RTR.Optimal)
		fcp.Observe(o.FCP.Optimal)
		mrc.Observe(o.MRC.Delivered)
	}
	fmt.Println("RTR optimal  ", rtr)
	fmt.Println("FCP optimal  ", fcp)
	fmt.Println("MRC delivered", mrc)
	// Output:
	// 3 routers and 25 links down: 317 recoverable, 156 irrecoverable cases
	// RTR optimal   95.3% (302/317)
	// FCP optimal   61.8% (196/317)
	// MRC delivered 20.8% (66/317)
}

// IGP convergence after a large-scale failure takes seconds under
// classic timers, and every failed routing path drops its traffic for
// the whole window; RTR reroutes a recoverable path once the failure
// is detected. Tuned timers shrink the window, not RTR's share of it.
func ExamplePacketLoss() {
	w, err := sim.NewWorld("AS209", 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, mode := range []struct {
		name   string
		timers igp.Timers
	}{
		{"classic", igp.ClassicTimers()},
		{"tuned", igp.TunedTimers()},
	} {
		res := sim.PacketLoss(w, sim.LossConfig{
			Scenarios:        40,
			PacketsPerSecond: 10000,
			Seed:             7,
			Timers:           mode.timers,
		})
		fmt.Printf("%-7s window %v, %d failed paths (%d recoverable), saved by RTR %.1f%%\n",
			mode.name, res.MeanConvergence.Round(time.Millisecond), res.FailedPaths, res.RecoverablePaths, res.SavedPercent)
	}
	// Output:
	// classic window 5.961s, 6971 failed paths (4489 recoverable), saved by RTR 51.7%
	// tuned   window 214ms, 6971 failed paths (4489 recoverable), saved by RTR 47.6%
}
