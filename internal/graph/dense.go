package graph

// DenseTabler is a Denied whose failure state is available as flat
// boolean tables indexed by NodeID and LinkID. The shortest-path
// engine's inner relaxation loop consults the overlay twice per edge;
// a DenseTabler lets it replace those two interface calls with two
// slice loads. Mask and failure.Scenario qualify; algorithmic overlays
// (unions, per-configuration views) are compiled into scratch tables
// by the spt workspace instead.
type DenseTabler interface {
	Denied
	// DenseTables returns the overlay as (nodes, links) tables:
	// nodes[v] iff NodeDown(v), links[id] iff LinkDown(id). The slices
	// are the implementation's live state, shared with the caller for
	// the duration of one computation: callers must not mutate them or
	// retain them across mutations of the source.
	DenseTables() (nodes, links []bool)
}

// DenseTablesOf returns d's flat tables when d can expose them without
// compilation: d is a DenseTabler, or d is Nothing (reported as nil
// tables with ok true — all-up, callers substitute zeroed tables).
func DenseTablesOf(d Denied) (nodes, links []bool, ok bool) {
	if d == Nothing {
		return nil, nil, true
	}
	if dt, isDense := d.(DenseTabler); isDense {
		nodes, links = dt.DenseTables()
		return nodes, links, true
	}
	return nil, nil, false
}
