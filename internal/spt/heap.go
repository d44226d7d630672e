package spt

import "repro/internal/graph"

// heapEntry is one (dist, node) record of the priority queue.
type heapEntry struct {
	dist float64
	node graph.NodeID
}

// before is the canonical (dist, node) order.
func (a heapEntry) before(b heapEntry) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

// minHeap is a 4-ary min-heap of (dist, node) records with lazy
// deletion: decrease-key is implemented by pushing a fresh entry and
// discarding stale pops in the Dijkstra loop. The records sit in one
// slice, so a sift step compares entries in one cache line, and sifts
// move a hole instead of swapping.
//
// Entries are ordered by (dist, node): ties in distance break on the
// smaller node ID. Because link costs are strictly positive, every
// node's final entry is in the heap before the first entry at its
// distance pops, so the canonical order makes the whole pop sequence —
// and with it every equal-cost parent choice — a pure function of
// (graph, overlay, root), independent of insertion order and of the
// heap's shape. That is what lets incremental recomputation reproduce
// a cold build bit for bit.
type minHeap struct {
	items []heapEntry
}

// reset empties the heap, growing its storage to capHint if needed, so
// one heap can serve many computations without reallocating.
func (h *minHeap) reset(capHint int) {
	if cap(h.items) < capHint {
		h.items = make([]heapEntry, 0, capHint)
		return
	}
	h.items = h.items[:0]
}

func (h *minHeap) len() int { return len(h.items) }

func (h *minHeap) push(v graph.NodeID, d float64) {
	e := heapEntry{dist: d, node: v}
	h.items = append(h.items, e)
	items := h.items
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(items[p]) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = e
}

// pop removes and returns the minimum entry; ok is false when empty.
func (h *minHeap) pop() (v graph.NodeID, d float64, ok bool) {
	items := h.items
	if len(items) == 0 {
		return 0, 0, false
	}
	top := items[0]
	n := len(items) - 1
	last := items[n]
	items = items[:n]
	h.items = items
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			best := c
			for j := c + 1; j < end; j++ {
				if items[j].before(items[best]) {
					best = j
				}
			}
			if !items[best].before(last) {
				break
			}
			items[i] = items[best]
			i = best
		}
		items[i] = last
	}
	return top.node, top.dist, true
}
