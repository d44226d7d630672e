package routing

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// HopRecord is one link traversal of a simulated packet.
type HopRecord struct {
	From, To graph.NodeID
	Link     graph.LinkID
	// HeaderBytes is the header's recording-byte count while the
	// packet is in flight on this hop (the transmission-overhead
	// metric of the paper's Fig. 10).
	HeaderBytes int
}

// Walk is the hop-by-hop trajectory of a simulated packet.
type Walk struct {
	Records []HopRecord
}

// Append adds a hop to the walk.
func (w *Walk) Append(r HopRecord) { w.Records = append(w.Records, r) }

// Reserve pre-sizes the record slice for a walk expected to reach n
// hops, so repeated Appends don't regrow it.
func (w *Walk) Reserve(n int) {
	if cap(w.Records)-len(w.Records) < n {
		grown := make([]HopRecord, len(w.Records), len(w.Records)+n)
		copy(grown, w.Records)
		w.Records = grown
	}
}

// Hops returns the number of link traversals.
func (w *Walk) Hops() int { return len(w.Records) }

// Duration returns the wall-clock duration of the walk under the
// paper's 1.8 ms/hop delay model.
func (w *Walk) Duration() time.Duration {
	return time.Duration(len(w.Records)) * HopDelay
}

// HeaderBytes returns each hop's HeaderBytes in travel order (nil for
// a walk of no hops).
func (w *Walk) HeaderBytes() []int {
	if len(w.Records) == 0 {
		return nil
	}
	out := make([]int, len(w.Records))
	for i, r := range w.Records {
		out[i] = r.HeaderBytes
	}
	return out
}

// Nodes returns the visited node sequence, starting node first.
func (w *Walk) Nodes() []graph.NodeID {
	if len(w.Records) == 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, len(w.Records)+1)
	out = append(out, w.Records[0].From)
	for _, r := range w.Records {
		out = append(out, r.To)
	}
	return out
}

// DefaultOutcome classifies what happens to a packet forwarded with
// the converged (pre-failure) tables under a failure.
type DefaultOutcome uint8

const (
	// DefaultDelivered: the converged path is failure-free.
	DefaultDelivered DefaultOutcome = iota + 1
	// DefaultSourceDown: the source itself failed; nothing to do.
	DefaultSourceDown
	// DefaultBlocked: a node on the path found its next hop
	// unreachable — that node is the recovery initiator.
	DefaultBlocked
	// DefaultNoRoute: the converged tables have no route at all
	// (possible only for disconnected pre-failure topologies).
	DefaultNoRoute
)

// String implements fmt.Stringer.
func (o DefaultOutcome) String() string {
	switch o {
	case DefaultDelivered:
		return "delivered"
	case DefaultSourceDown:
		return "source-down"
	case DefaultBlocked:
		return "blocked"
	case DefaultNoRoute:
		return "no-route"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// TraceDefault forwards a packet from src toward dst using the
// converged tables, each node checking only its own next hop's
// reachability (the per-node view lv), and reports where it gets
// blocked. On DefaultBlocked, initiator is the recovery initiator (the
// first node on the path whose next hop is unreachable) and hops is the
// number of links traversed from src to reach it.
func TraceDefault(t *Tables, lv *LocalView, src, dst graph.NodeID) (outcome DefaultOutcome, initiator graph.NodeID, hops int) {
	if !lv.NodeAlive(src) {
		return DefaultSourceDown, 0, 0
	}
	v := src
	for v != dst {
		nh, link, ok := t.NextHop(v, dst)
		if !ok {
			return DefaultNoRoute, 0, hops
		}
		if lv.NeighborUnreachable(v, link) {
			return DefaultBlocked, v, hops
		}
		v = nh
		hops++
	}
	return DefaultDelivered, 0, hops
}
