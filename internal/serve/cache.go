package serve

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spt"
)

// entry is one cached post-failure converged state: everything about a
// failure instance that is independent of the queried pair. The
// expensive pieces are built exactly once under the entry's sync.Once
// — concurrent requests for the same instance wait for one warm-up
// instead of racing N incremental recomputes — and the entry is
// immutable afterwards, so requests still holding it after an LRU
// eviction keep working on valid state.
type entry struct {
	// key is the topology-qualified cache key; fp is the canonical
	// instance fingerprint (Scenario.Desc() of the ParseInstance round
	// trip) it embeds.
	key string
	fp  string
	sc  *failure.Scenario

	once sync.Once
	lv   *routing.LocalView
	// post is the converged routing state of the surviving topology,
	// warmed from the pre-failure tables by the delete-only incremental
	// recompute (bit-identical to a cold build; see routing.Recompute-
	// TablesUnder). It supplies the Recoverable classification —
	// reverse-tree reachability equals component membership on the
	// undirected surviving graph — and the converged cost/hops extras.
	post *routing.Tables
	// multiCluster records whether the failure mask splits into more
	// than one perimeter cluster, which selects the invariant profile
	// (the single-perimeter checks assume one connected region).
	multiCluster bool

	// truth holds the per-initiator forward ground-truth trees the
	// protocol runners grade against. Grading must NOT read costs from
	// post: a reverse tree can pick an equal-cost path whose float sum
	// differs in the last ulp from the forward tree's, and the serving
	// layer promises byte-identical outcomes to the sim harness — so it
	// warms each tree exactly the way sim does, from the initiator's
	// clean tree via the delete-only recompute.
	mu    sync.Mutex
	truth map[graph.NodeID]*truthEntry

	// sessions holds the prepared RTR sessions, one per (initiator,
	// trigger): phase-1 collection and the pruned-view shortest-path
	// work run once per key and every later query for the same pair of
	// coordinates — within a batch or across repeated queries — shares
	// the read-only result. Growth is bounded by the failure's
	// perimeter: only initiators adjacent to the failure ever open a
	// session, and triggers are their incident failed links.
	sessMu   sync.Mutex
	sessions map[sessKey]*sessEntry
}

type truthEntry struct {
	once sync.Once
	tree *spt.Tree
}

// sessKey coordinates one shared recovery session within an entry (the
// entry already pins the scenario and its LocalView).
type sessKey struct {
	init    graph.NodeID
	trigger graph.LinkID
}

// sessEntry is one memoized session with its collection outcome
// classified exactly like sim's batched runner: a session error, a
// fully cut-off initiator, or a prepared share-safe session.
type sessEntry struct {
	once   sync.Once
	sess   *core.Session
	col    *core.CollectResult
	noLive bool
	err    error
}

func newEntry(key, fp string, sc *failure.Scenario) *entry {
	return &entry{
		key: key, fp: fp, sc: sc,
		truth:    make(map[graph.NodeID]*truthEntry),
		sessions: make(map[sessKey]*sessEntry),
	}
}

// sessionFor returns the shared session for (initiator, trigger),
// opening, collecting, and preparing it on first use. After the
// sync.Once completes the session is read-only (core.Session.Prepare's
// contract), so any number of queries extract routes from it
// concurrently with their own route buffers. The classification
// mirrors sim.RunAllN's group head, keeping served outcomes
// byte-identical to the per-case runner.
func (en *entry) sessionFor(w *sim.World, init graph.NodeID, trigger graph.LinkID) *sessEntry {
	k := sessKey{init: init, trigger: trigger}
	en.sessMu.Lock()
	se := en.sessions[k]
	if se == nil {
		se = &sessEntry{}
		en.sessions[k] = se
	}
	en.sessMu.Unlock()
	se.once.Do(func() {
		sess, err := w.RTR.NewSession(en.lv, init)
		if err != nil {
			se.err = err
			return
		}
		col, err := sess.Collect(trigger)
		switch {
		case errors.Is(err, core.ErrNoLiveNeighbor):
			se.noLive = true
		case err != nil:
			se.err = err
		default:
			sess.Prepare()
			se.sess, se.col = sess, col
		}
	})
	return se
}

// warm builds the converged post-failure state on first use, by the
// delete-only incremental recompute from the world's clean tables.
func (en *entry) warm(w *sim.World) {
	en.once.Do(func() {
		en.lv = routing.NewLocalView(w.Topo, en.sc)
		en.post = routing.RecomputeTablesUnder(w.Topo, w.Tables, en.sc)
		en.multiCluster = len(en.sc.Clusters()) > 1
	})
}

// truthFor returns the shared forward ground-truth tree rooted at the
// initiator, computing it on first use exactly as sim's truth cache
// does. Workers needing different initiators proceed in parallel;
// workers needing the same one wait for a single computation.
func (en *entry) truthFor(w *sim.World, init graph.NodeID) *spt.Tree {
	en.mu.Lock()
	te := en.truth[init]
	if te == nil {
		te = &truthEntry{}
		en.truth[init] = te
	}
	en.mu.Unlock()
	te.once.Do(func() {
		te.tree = spt.Recompute(w.Topo.G, w.RTR.CleanTree(init), graph.Nothing, en.sc)
	})
	return te.tree
}

// recoverable is the ground-truth classification of a pair under the
// entry's failure: destination live and in the initiator's component.
func (en *entry) recoverable(src, dst graph.NodeID) bool {
	if en.sc.NodeDown(dst) {
		return false
	}
	_, ok := en.post.Dist(src, dst)
	return ok
}

// lru is the bounded converged-state cache, shared across topologies
// (keys carry the topology name). Plain list+map+mutex: lookups touch
// only pointers; all heavy work happens outside the lock under the
// entries' own sync.Onces.
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
		delete(c.m, keyOf(back))
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

// keyOf recovers the map key of an element about to be evicted. The
// key is the topology-qualified fingerprint; the entry stores only the
// fingerprint, so the element value carries the full key alongside.
func keyOf(el *list.Element) string { return el.Value.(*entry).key }

func (c *lru) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
