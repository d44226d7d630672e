package sim

import (
	"time"

	"repro/internal/routing"
)

// CaseRecord is the serializable projection of one Outcome: every
// scalar the paper's tables and figures aggregate, and nothing tied to
// in-memory state (no topology pointers, no scenario handles). The
// sweep engine streams CaseRecords to its JSONL checkpoint and the
// Dataset aggregates read them back — fresh results and results loaded
// from a checkpoint flow through the identical representation, which
// is what makes interrupted-and-resumed runs bit-identical to
// uninterrupted ones.
type CaseRecord struct {
	// Recoverable is the case's ground-truth classification.
	Recoverable bool `json:"recoverable"`
	// Err carries a runner error ("" when none); errored cases are
	// excluded from every aggregate, exactly as Outcome.Err was.
	Err string    `json:"err,omitempty"`
	RTR RTRRecord `json:"rtr"`
	FCP FCPRecord `json:"fcp"`
	MRC MRCRecord `json:"mrc"`
	// Schemes holds Outcome.Others: every other scheme's grade, keyed by
	// its name. Omitted when empty, so records of the paper's three keep
	// their bytes.
	Schemes map[string]Result `json:"schemes,omitempty"`
}

// RTRRecord holds RTR's aggregable metrics for one case.
type RTRRecord struct {
	Recovered bool    `json:"recovered,omitempty"`
	Optimal   bool    `json:"optimal,omitempty"`
	Stretch   float64 `json:"stretch,omitempty"`
	SPCalcs   int     `json:"sp_calcs,omitempty"`
	// Phase1Bytes is the header's recording-byte count on each hop of
	// the phase-1 collection walk; its length is the walk's hop count,
	// from which the walk duration follows (1.8 ms/hop). It is the
	// series of the session the case rode (core.Session.Phase1Bytes),
	// shared by every record of that session: read it, never modify it.
	Phase1Bytes           []int `json:"phase1_bytes,omitempty"`
	RouteBytes            int   `json:"route_bytes,omitempty"`
	IdentifiedUnreachable bool  `json:"identified_unreachable,omitempty"`
	WastedHops            int   `json:"wasted_hops,omitempty"`
	NoLiveNeighbor        bool  `json:"no_live_neighbor,omitempty"`
}

// Phase1Duration returns the collection walk's duration under the
// paper's per-hop delay model.
func (r *RTRRecord) Phase1Duration() time.Duration {
	return time.Duration(len(r.Phase1Bytes)) * routing.HopDelay
}

// FCPRecord holds FCP's aggregable metrics for one case.
type FCPRecord struct {
	Delivered  bool    `json:"delivered,omitempty"`
	Optimal    bool    `json:"optimal,omitempty"`
	Stretch    float64 `json:"stretch,omitempty"`
	SPCalcs    int     `json:"sp_calcs,omitempty"`
	WalkBytes  []int   `json:"walk_bytes,omitempty"`
	FinalBytes int     `json:"final_bytes,omitempty"`
	WastedHops int     `json:"wasted_hops,omitempty"`
}

// MRCRecord holds MRC's aggregable metrics for one case.
type MRCRecord struct {
	Delivered bool    `json:"delivered,omitempty"`
	Optimal   bool    `json:"optimal,omitempty"`
	Stretch   float64 `json:"stretch,omitempty"`
	// Skipped marks a case run on a scale-mode world without an MRC
	// engine; omitted entirely on full worlds, so existing checkpoints
	// keep their byte-exact records.
	Skipped bool `json:"skipped,omitempty"`
}

// Record projects the outcome onto its serializable form.
func (o *Outcome) Record() CaseRecord {
	rec := CaseRecord{
		RTR: RTRRecord{
			Recovered:             o.RTR.Recovered,
			Optimal:               o.RTR.Optimal,
			Stretch:               o.RTR.Stretch,
			SPCalcs:               o.RTR.SPCalcs,
			Phase1Bytes:           o.RTR.phase1Bytes(),
			RouteBytes:            o.RTR.RouteBytes,
			IdentifiedUnreachable: o.RTR.IdentifiedUnreachable,
			WastedHops:            o.RTR.WastedHops,
			NoLiveNeighbor:        o.RTR.NoLiveNeighbor,
		},
		FCP: FCPRecord{
			Delivered:  o.FCP.Delivered,
			Optimal:    o.FCP.Optimal,
			Stretch:    o.FCP.Stretch,
			SPCalcs:    o.FCP.SPCalcs,
			WalkBytes:  o.FCP.Walk.HeaderBytes(),
			FinalBytes: o.FCP.FinalBytes,
			WastedHops: o.FCP.WastedHops,
		},
		MRC: MRCRecord{
			Delivered: o.MRC.Delivered,
			Optimal:   o.MRC.Optimal,
			Stretch:   o.MRC.Stretch,
			Skipped:   o.MRC.Skipped,
		},
	}
	for name, r := range o.Others {
		if rec.Schemes == nil {
			rec.Schemes = make(map[string]Result, len(o.Others))
		}
		r.Walks = nil
		rec.Schemes[name] = r
	}
	if o.Case != nil {
		rec.Recoverable = o.Case.Recoverable
	}
	if o.Err != nil {
		rec.Err = o.Err.Error()
	}
	return rec
}

// Records projects a slice of outcomes, preserving order.
func Records(outs []Outcome) []CaseRecord {
	recs := make([]CaseRecord, len(outs))
	for i := range outs {
		recs[i] = outs[i].Record()
	}
	return recs
}

// phase1Bytes is the collection walk's per-hop header bytes: the
// series the case's session derived when it collected, shared by every
// record of the session, or one read off the walk for a result that
// carries no session.
func (r *RTRResult) phase1Bytes() []int {
	if r.Session != nil {
		return r.Session.Phase1Bytes()
	}
	return r.Phase1.HeaderBytes()
}

// RecordBytesAt returns the header recording bytes in flight at time
// t for a packet whose hop h (1.8 ms per hop) carried perHop[h]
// recording bytes, settling at `steady` — the cached source route used
// by all subsequent packets — once the trajectory completes.
func RecordBytesAt(perHop []int, steady int, t time.Duration) int {
	if t < 0 {
		return 0
	}
	hop := int(t / routing.HopDelay)
	if hop < len(perHop) {
		return perHop[hop]
	}
	return steady
}
