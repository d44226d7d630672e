package serve

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/sim"
)

// entry is one cached failure instance. The content — everything about
// the instance that is independent of the queried pair — is the
// converged.State, which builds each piece once on first use and is
// read-only afterwards, so requests still holding an entry after an
// LRU eviction keep working on valid state. This package owns only
// the keying and the eviction.
type entry struct {
	// key is the topology-qualified cache key; fp is the canonical
	// instance fingerprint (failure.AppendCanonical) it ends with.
	key string
	fp  string

	once sync.Once
	st   *converged.State

	// frags holds, per prepared RTR session answers on this entry rode,
	// the encoded phase1_bytes array of its walk, or nil while only one
	// answer has ridden it (appendPhase1). Like st it lives as long as
	// the entry: eviction drops it with the entry once no request holds
	// that any more.
	mu    sync.Mutex
	frags map[*core.Session][]byte
}

func newEntry(key []byte, fpAt int) *entry {
	k := string(key)
	return &entry{key: k, fp: k[fpAt:]}
}

// state returns the entry's converged state. The first caller builds
// the failure's ground truth from the fingerprint — a test of every
// node and link against every area — and any number of concurrent
// first callers wait for that one build. The LRU never calls it, so
// that O(n+E) work never runs under the cache lock.
func (en *entry) state(w *sim.World) *converged.State {
	en.once.Do(func() {
		sc, err := failure.ParseInstance(w.Topo, en.fp)
		if err != nil {
			panic("serve: cached fingerprint does not parse: " + err.Error())
		}
		en.st = w.Converged(sc)
	})
	return en.st
}

// appendPhase1 appends p, the phase1_bytes series of an answer that
// rode sess, as a JSON array. When p is sess's own shared series
// (core.Session.Phase1Bytes), the first answer on the session encodes
// it and only marks the session, the second keeps a copy of its
// encoding, and every later one splices that copy: most sessions are
// answered once, and their series are never copied. The lock is never
// held across an encode: answers racing on a session all encode,
// produce identical bytes, and the first copy inserted wins. A nil
// entry or session encodes p every time.
func (en *entry) appendPhase1(b []byte, sess *core.Session, p []int) []byte {
	if en == nil || sess == nil {
		return appendInts(b, p)
	}
	if shared := sess.Phase1Bytes(); len(p) == 0 || len(p) != len(shared) || &p[0] != &shared[0] {
		return appendInts(b, p)
	}
	en.mu.Lock()
	f, seen := en.frags[sess]
	if !seen {
		if en.frags == nil {
			en.frags = make(map[*core.Session][]byte)
		}
		en.frags[sess] = nil
	}
	en.mu.Unlock()
	if f != nil {
		return append(b, f...)
	}
	at := len(b)
	b = appendInts(b, p)
	if !seen {
		return b
	}
	f = slices.Clone(b[at:])
	en.mu.Lock()
	if en.frags[sess] == nil {
		en.frags[sess] = f
	}
	en.mu.Unlock()
	return b
}

// lru is the bounded converged-state cache, shared across topologies
// (keys carry the topology name). Plain list+map+mutex: lookups touch
// only pointers; all heavy work happens outside the lock, in
// entry.state and inside the State.
type lru struct {
	cap int
	mu  sync.Mutex
	ll  *list.List               // front = most recently used
	m   map[string]*list.Element // key -> element holding *entry
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the entry under key, inserting an empty one on a miss,
// and reports whether it was already present plus how many entries the
// insertion evicted. key[fpAt:] is the instance fingerprint. With
// capacity <= 0 the cache is disabled: every call is a miss whose
// entry is thrown away.
func (c *lru) get(key []byte, fpAt int) (en *entry, hit bool, evicted int) {
	if c.cap <= 0 {
		return newEntry(key, fpAt), false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[string(key)]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry), true, 0
	}
	en = newEntry(key, fpAt)
	c.m[en.key] = c.ll.PushFront(en)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*entry).key)
		evicted++
	}
	return en, false, evicted
}

// hit returns the entry already cached under key without inserting
// anything on a miss. Only canonical fingerprints are ever inserted,
// so a hit on a client's own spelling proves it was canonical already
// (a fingerprint replayed from a response) and saves canonicalising it.
func (c *lru) hit(key []byte) (*entry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[string(key)]; ok {
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
