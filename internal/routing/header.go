// Package routing provides the packet and forwarding substrate shared
// by RTR and the baselines: the recovery packet header (the paper's
// mode / rec_init / failed_link / cross_link fields plus the source
// route), link-state routing tables, the restricted per-node failure
// view, and hop/delay accounting.
package routing

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// Mode is the forwarding mode carried in the packet header.
type Mode uint8

const (
	// ModeDefault marks a packet forwarded by the default link-state
	// routing protocol (header mode 0 in the paper).
	ModeDefault Mode = iota
	// ModeCollect marks a packet forwarded by RTR's first phase
	// (header mode 1 in the paper).
	ModeCollect
	// ModeSource marks a packet forwarded along a source route (RTR's
	// second phase, and FCP's source-routing variant).
	ModeSource
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDefault:
		return "default"
	case ModeCollect:
		return "collect"
	case ModeSource:
		return "source"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Header is the recovery header carried by packets during IGP
// convergence. It is priced, not serialised: RecordingBytes counts
// each link and node ID at the paper's 16-bit width.
type Header struct {
	Mode    Mode
	RecInit graph.NodeID
	// FailedLinks is the failed_link field: IDs of failed links
	// recorded by routers adjacent to the failure area.
	FailedLinks []graph.LinkID
	// CrossLinks is the cross_link field: links whose crossers are
	// excluded from next-hop selection (Constraints 1 and 2).
	CrossLinks []graph.LinkID
	// SourceRoute is the remaining source route (node IDs), used in
	// ModeSource. SourceIdx points at the next node to visit.
	SourceRoute []graph.NodeID
	SourceIdx   int
}

// HasFailedLink reports whether id is already recorded in failed_link.
func (h *Header) HasFailedLink(id graph.LinkID) bool {
	for _, f := range h.FailedLinks {
		if f == id {
			return true
		}
	}
	return false
}

// RecordFailedLink appends id to failed_link unless already present.
// It reports whether the header changed.
func (h *Header) RecordFailedLink(id graph.LinkID) bool {
	if h.HasFailedLink(id) {
		return false
	}
	h.FailedLinks = append(h.FailedLinks, id)
	return true
}

// HasCrossLink reports whether id is already recorded in cross_link.
func (h *Header) HasCrossLink(id graph.LinkID) bool {
	for _, c := range h.CrossLinks {
		if c == id {
			return true
		}
	}
	return false
}

// RecordCrossLink appends id to cross_link unless already present.
// It reports whether the header changed.
func (h *Header) RecordCrossLink(id graph.LinkID) bool {
	if h.HasCrossLink(id) {
		return false
	}
	h.CrossLinks = append(h.CrossLinks, id)
	return true
}

// RecordingBytes is the number of bytes the header spends on recording
// recovery information — the paper's transmission-overhead metric.
// Each recorded link ID and each source-route entry is 16 bits.
func (h *Header) RecordingBytes() int {
	return 2 * (len(h.FailedLinks) + len(h.CrossLinks) + len(h.SourceRoute))
}

// Delay model, exactly as in the paper's evaluation: 100 microseconds
// through a router plus 1.7 milliseconds of propagation per link.
const (
	RouterDelay = 100 * time.Microsecond
	PropDelay   = 1700 * time.Microsecond
	// HopDelay is the total per-hop delay.
	HopDelay = RouterDelay + PropDelay
	// PacketBaseBytes is the assumed payload size when accounting
	// wasted transmission (the paper assumes 1000-byte packets plus
	// the recovery header).
	PacketBaseBytes = 1000
)
