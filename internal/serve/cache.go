package serve

import (
	"container/list"
	"sync"

	"repro/internal/converged"
)

// entry is one cached failure instance. The content — everything about
// the instance that is independent of the queried pair — is the
// converged.State, which builds each piece once on first use and is
// read-only afterwards, so requests still holding an entry after an
// LRU eviction keep working on valid state. This package owns only
// the keying and the eviction.
type entry struct {
	// key is the topology-qualified cache key; fp is the canonical
	// instance fingerprint (Scenario.Desc() of the ParseInstance round
	// trip) it embeds.
	key string
	fp  string
	st  *converged.State
}

// lru is the bounded converged-state cache, shared across topologies
// (keys carry the topology name). Plain list+map+mutex: lookups touch
// only pointers; all heavy work happens outside the lock, inside the
// State.
type lru struct {
	cap int
	mu  sync.Mutex
	ll  *list.List               // front = most recently used
	m   map[string]*list.Element // key -> element holding *entry
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the entry under key, inserting a fresh one built by mk
// on a miss, and reports whether it was already present plus how many
// entries the insertion evicted. With capacity <= 0 the cache is
// disabled: every call is a miss that builds throwaway state.
func (c *lru) get(key string, mk func() *entry) (en *entry, hit bool, evicted int) {
	if c.cap <= 0 {
		return mk(), false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry), true, 0
	}
	en = mk()
	c.m[key] = c.ll.PushFront(en)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*entry).key)
		evicted++
	}
	return en, false, evicted
}

// hit returns the entry already cached under key without inserting
// anything on a miss. This is the canonical-descriptor fast path: only
// canonical fingerprints are ever inserted as keys, so a hit proves
// the caller's descriptor is already canonical and the per-query
// parse/compose of the failure instance can be skipped entirely.
func (c *lru) hit(key string) (*entry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry), true
	}
	return nil, false
}

func (c *lru) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
