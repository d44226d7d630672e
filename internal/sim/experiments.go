package sim

import (
	"time"

	"repro/internal/stats"
)

// Dataset is the shared raw material of Tables III/IV and Figs. 7-10,
// 12-13 for one topology: case records on recoverable and
// irrecoverable cases. Records — not live Outcomes — are the canonical
// representation, so a Dataset assembled from a sweep checkpoint
// aggregates identically to one built in memory.
type Dataset struct {
	World *World
	Rec   []CaseRecord
	Irr   []CaseRecord
}

// Fig7 returns the CDF of first-phase durations in milliseconds over
// all cases (the paper uses both recoverable and irrecoverable cases:
// "RTR has the same first phase in both").
func (d *Dataset) Fig7() *stats.CDF {
	var c stats.CDF
	for _, set := range [][]CaseRecord{d.Rec, d.Irr} {
		for i := range set {
			r := &set[i]
			if r.Err != "" || r.RTR.NoLiveNeighbor {
				continue
			}
			c.Add(float64(r.RTR.Phase1Duration()) / float64(time.Millisecond))
		}
	}
	return &c
}

// Table3Row is one topology's row of Table III.
type Table3Row struct {
	AS string
	// Recovery rates in percent.
	RTRRecovery, FCPRecovery, MRCRecovery float64
	// Optimal recovery rates in percent.
	RTROptimal, FCPOptimal, MRCOptimal float64
	// Maximum stretch among recovered cases.
	RTRMaxStretch, FCPMaxStretch, MRCMaxStretch float64
	// Maximum number of shortest path calculations (reactive schemes).
	RTRMaxCalcs, FCPMaxCalcs int
}

// Table3 aggregates the recoverable records into the paper's
// Table III row for this topology.
func (d *Dataset) Table3() Table3Row {
	row := Table3Row{AS: d.World.Topo.Name}
	var rtrRec, rtrOpt, fcpRec, fcpOpt, mrcRec, mrcOpt stats.Rate
	for i := range d.Rec {
		r := &d.Rec[i]
		if r.Err != "" {
			continue
		}
		rtrRec.Observe(r.RTR.Recovered)
		rtrOpt.Observe(r.RTR.Optimal)
		fcpRec.Observe(r.FCP.Delivered)
		fcpOpt.Observe(r.FCP.Optimal)
		// Scale-mode records skip MRC entirely; observing them would
		// report a fake 0% recovery rate.
		if !r.MRC.Skipped {
			mrcRec.Observe(r.MRC.Delivered)
			mrcOpt.Observe(r.MRC.Optimal)
		}
		if r.RTR.Recovered && r.RTR.Stretch > row.RTRMaxStretch {
			row.RTRMaxStretch = r.RTR.Stretch
		}
		if r.FCP.Delivered && r.FCP.Stretch > row.FCPMaxStretch {
			row.FCPMaxStretch = r.FCP.Stretch
		}
		if r.MRC.Delivered && r.MRC.Stretch > row.MRCMaxStretch {
			row.MRCMaxStretch = r.MRC.Stretch
		}
		if r.RTR.SPCalcs > row.RTRMaxCalcs {
			row.RTRMaxCalcs = r.RTR.SPCalcs
		}
		if r.FCP.SPCalcs > row.FCPMaxCalcs {
			row.FCPMaxCalcs = r.FCP.SPCalcs
		}
	}
	row.RTRRecovery = rtrRec.Percent()
	row.RTROptimal = rtrOpt.Percent()
	row.FCPRecovery = fcpRec.Percent()
	row.FCPOptimal = fcpOpt.Percent()
	row.MRCRecovery = mrcRec.Percent()
	row.MRCOptimal = mrcOpt.Percent()
	return row
}

// Fig8 returns the stretch CDFs of recovered cases for RTR and FCP.
func (d *Dataset) Fig8() (rtr, fcp *stats.CDF) {
	rtr, fcp = &stats.CDF{}, &stats.CDF{}
	for i := range d.Rec {
		r := &d.Rec[i]
		if r.Err != "" {
			continue
		}
		if r.RTR.Recovered {
			rtr.Add(r.RTR.Stretch)
		}
		if r.FCP.Delivered {
			fcp.Add(r.FCP.Stretch)
		}
	}
	return rtr, fcp
}

// Fig9 returns the CDFs of shortest-path calculation counts on
// recoverable cases for RTR and FCP.
func (d *Dataset) Fig9() (rtr, fcp *stats.CDF) { return spCalcs(d.Rec) }

// spCalcs returns RTR's and FCP's shortest-path calculation counts
// over the records in which RTR ran.
func spCalcs(set []CaseRecord) (rtr, fcp *stats.CDF) {
	rtr, fcp = &stats.CDF{}, &stats.CDF{}
	for i := range set {
		r := &set[i]
		if r.Err != "" || r.RTR.NoLiveNeighbor {
			continue
		}
		rtr.Add(float64(r.RTR.SPCalcs))
		fcp.Add(float64(r.FCP.SPCalcs))
	}
	return rtr, fcp
}

// TimePoint is one sample of Fig. 10's average transmission overhead
// (header recording bytes) over time.
type TimePoint struct {
	T        time.Duration
	RTRBytes float64
	FCPBytes float64
}

// Fig10 samples the average per-packet header recording bytes over
// recoverable cases from t=0 to horizon in the given step (the paper
// shows the first second at millisecond resolution).
func (d *Dataset) Fig10(horizon, step time.Duration) []TimePoint {
	var out []TimePoint
	for t := time.Duration(0); t <= horizon; t += step {
		var rtrSum, fcpSum float64
		n := 0
		for i := range d.Rec {
			r := &d.Rec[i]
			if r.Err != "" || r.RTR.NoLiveNeighbor {
				continue
			}
			n++
			rtrSum += float64(RecordBytesAt(r.RTR.Phase1Bytes, r.RTR.RouteBytes, t))
			fcpSum += float64(RecordBytesAt(r.FCP.WalkBytes, r.FCP.FinalBytes, t))
		}
		if n == 0 {
			continue
		}
		out = append(out, TimePoint{T: t, RTRBytes: rtrSum / float64(n), FCPBytes: fcpSum / float64(n)})
	}
	return out
}

// Fig11Point is one radius sample of Fig. 11.
type Fig11Point struct {
	Radius float64
	// Percent of failed routing paths that are irrecoverable.
	Percent float64
	Failed  int
}

// NewFig11Point assembles one Fig. 11 sample from raw failed-path
// counts: the sweep engine's KindFig11 shards count them with
// CountFailedPaths over random areas of one radius (the paper: 20 to
// 300 in steps of 20, 1000 areas per radius).
func NewFig11Point(radius float64, failed, irrecoverable int) Fig11Point {
	p := Fig11Point{Radius: radius, Failed: failed}
	if failed > 0 {
		p.Percent = 100 * float64(irrecoverable) / float64(failed)
	}
	return p
}

// DefaultRadii is the paper's Fig. 11 sweep: 20 to 300 step 20.
func DefaultRadii() []float64 {
	var out []float64
	for r := 20.0; r <= 300; r += 20 {
		out = append(out, r)
	}
	return out
}

// Fig12 returns the CDFs of wasted computation (shortest path
// calculations) on irrecoverable cases.
func (d *Dataset) Fig12() (rtr, fcp *stats.CDF) { return spCalcs(d.Irr) }

// Fig13 returns the CDFs of wasted transmission (packet size times
// hops from the initiator to the discarding node) on irrecoverable
// cases.
func (d *Dataset) Fig13() (rtr, fcp *stats.CDF) {
	rtr, fcp = &stats.CDF{}, &stats.CDF{}
	for i := range d.Irr {
		r := &d.Irr[i]
		if r.Err != "" || r.RTR.NoLiveNeighbor {
			continue
		}
		rtr.Add(wastedTransmission(r.RTR.RouteBytes, r.RTR.WastedHops))
		fcp.Add(wastedTransmission(r.FCP.FinalBytes, r.FCP.WastedHops))
	}
	return rtr, fcp
}

// Table4Row is one topology's row of Table IV.
type Table4Row struct {
	AS                       string
	RTRAvgComp, FCPAvgComp   float64
	RTRMaxComp, FCPMaxComp   float64
	RTRAvgTrans, FCPAvgTrans float64
	RTRMaxTrans, FCPMaxTrans float64
}

// Table4 aggregates the irrecoverable records into the paper's
// Table IV row.
func (d *Dataset) Table4() Table4Row {
	rtrC, fcpC := d.Fig12()
	rtrT, fcpT := d.Fig13()
	row := Table4Row{AS: d.World.Topo.Name}
	if rtrC.N() > 0 {
		row.RTRAvgComp, row.RTRMaxComp = rtrC.Mean(), rtrC.Max()
		row.FCPAvgComp, row.FCPMaxComp = fcpC.Mean(), fcpC.Max()
		row.RTRAvgTrans, row.RTRMaxTrans = rtrT.Mean(), rtrT.Max()
		row.FCPAvgTrans, row.FCPMaxTrans = fcpT.Mean(), fcpT.Max()
	}
	return row
}
