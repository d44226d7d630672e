// Package serve is the warm-cache recovery serving layer: a
// concurrency-safe query engine over read-only per-topology worlds,
// answering single-pair recovery queries ("after failure F, how does
// src reach dst?") through the paper's protocols. The expensive piece
// of such a query is the post-failure converged state; the engine
// keeps a bounded LRU of it, keyed by the canonical failure-instance
// fingerprint, so a repeated failure costs one delete-only incremental
// recompute and every later query rides the warm entry. Responses are
// byte-identical to the sim harness's per-case outcomes — the serving
// layer is a different execution shape, never a different answer.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Scheme names accepted in queries. Any other name is resolved
// against the scheme registry (sim.SchemeSet), so every registered
// scheme — congestion-aware variants included — is servable without
// touching this package.
const (
	SchemeRTR = sim.SchemeRTR
	// SchemeAll runs the paper's three protocols on the case, sharing
	// one ground-truth tree, exactly like the sim harness's RunAll.
	SchemeAll = sim.SchemeAll
)

// Dispositions a query can resolve to. Only DispRecovery carries
// protocol results; the others are legitimate non-case answers, not
// errors.
const (
	// DispRecovery: src is live and its converged next hop toward dst
	// is unreachable — the paper's test-case condition. The response
	// carries the per-protocol outcome record.
	DispRecovery = "recovery"
	// DispForwarded: src's converged next hop is unaffected, so src
	// forwards normally and initiates no recovery (some downstream
	// router may; PathAffected says whether the converged path crosses
	// the failure at all).
	DispForwarded = "forwarded"
	// DispInitiatorDown: src itself is inside the failure.
	DispInitiatorDown = "initiator-down"
	// DispNoRoute: the pre-failure tables hold no src -> dst route.
	DispNoRoute = "no-route"
)

// Config configures an Engine.
type Config struct {
	// Topos are the Table II topology names to serve (all when empty).
	Topos []string
	// Seed is the synthesis seed shared by every topology.
	Seed int64
	// CacheEntries bounds the converged-state LRU, shared across
	// topologies; <= 0 disables caching entirely (every query rebuilds
	// converged state).
	CacheEntries int
	// Check runs the invariant oracle, one Checker per world, on the
	// answer to every recovery case served (errored ones included); a
	// violation fails the query with an internal error carrying the
	// repro string.
	Check bool
	// Worlds, when non-empty, are served as-is under their map keys in
	// addition to (and instead of, when Topos is empty) the synthesized
	// Table II set. This is the scale path: load a binary snapshot,
	// build a scale-mode world once, and serve it — the engine never
	// synthesizes a 10^5-node topology itself.
	Worlds map[string]*sim.World
	// DefaultScheme answers queries that omit a scheme ("all" when
	// empty). Any registered scheme name or "all"; New fails fast on an
	// unknown name so a misconfigured daemon never starts.
	DefaultScheme string
}

// Engine answers recovery queries over a fixed set of worlds. Worlds
// and protocol engines are immutable after construction; per-request
// scratch comes from the spt workspace pool and per-case session
// state, so one Engine serves any number of goroutines.
type Engine struct {
	worlds map[string]*sim.World
	names  []string
	cache  *lru
	// checkers holds one oracle per served world, keyed like worlds;
	// nil unless Config.Check.
	checkers  map[string]*invariant.Checker
	defScheme string
	st        stats
}

// New loads one world per requested topology (in parallel — world
// construction is the daemon's startup cost) and returns the engine.
func New(cfg Config) (*Engine, error) {
	names := cfg.Topos
	if len(names) == 0 && len(cfg.Worlds) == 0 {
		names = topology.ASNames()
	}
	e := &Engine{
		worlds:    make(map[string]*sim.World, len(names)+len(cfg.Worlds)),
		cache:     newLRU(cfg.CacheEntries),
		defScheme: cfg.DefaultScheme,
	}
	if e.defScheme != "" {
		if _, err := sim.SchemeSet(e.defScheme); err != nil {
			return nil, err
		}
	}
	for name, w := range cfg.Worlds {
		e.worlds[name] = w
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for _, name := range names {
		if _, ok := e.worlds[name]; ok {
			continue // an injected world takes precedence over synthesis
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			w, err := sim.NewWorld(name, cfg.Seed)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			e.worlds[name] = w
		}(name)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	e.names = make([]string, 0, len(e.worlds))
	for name := range e.worlds {
		e.names = append(e.names, name)
	}
	sort.Strings(e.names)
	if cfg.Check {
		e.checkers = make(map[string]*invariant.Checker, len(e.worlds))
		for name, w := range e.worlds {
			e.checkers[name] = invariant.New(w)
		}
	}
	return e, nil
}

// Topologies returns the sorted topology names the engine serves.
func (e *Engine) Topologies() []string { return e.names }

// Query is one recovery question.
type Query struct {
	// Topo names the topology; Failure is a failure-instance
	// descriptor in failure.ParseInstance's grammar (the cache key is
	// its canonical fingerprint, not the input — see lookupEntry for
	// which spellings share one).
	Topo    string `json:"topo"`
	Failure string `json:"failure"`
	// Src and Dst are the pair, as node indices.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Scheme is a registered scheme name or all (the default when
	// empty).
	Scheme string `json:"scheme,omitempty"`
}

// Response is the engine's answer.
type Response struct {
	Topo string `json:"topo"`
	// Failure is the canonical instance fingerprint, usable verbatim
	// as a future Query.Failure or a failure.ParseInstance input.
	Failure     string `json:"failure"`
	Src         int    `json:"src"`
	Dst         int    `json:"dst"`
	Scheme      string `json:"scheme"`
	Disposition string `json:"disposition"`
	// Recoverable is the ground-truth classification (recovery
	// disposition only).
	Recoverable bool `json:"recoverable,omitempty"`
	// CacheHit reports whether the converged state was already warm.
	CacheHit bool `json:"cache_hit,omitempty"`
	// PathAffected (forwarded disposition only) reports whether the
	// converged src -> dst path crosses the failure downstream — i.e.
	// some other router on the path is a recovery initiator for this
	// traffic even though src is not.
	PathAffected bool `json:"path_affected,omitempty"`
	// ConvergedCost and ConvergedHops describe the post-convergence
	// src -> dst route on the surviving topology (what the IGP will
	// use once it converges; absent when dst is down or unreachable).
	ConvergedCost float64 `json:"converged_cost,omitempty"`
	ConvergedHops int     `json:"converged_hops,omitempty"`
	// Case carries the per-scheme outcome record for recovery
	// dispositions, byte-identical to the sim harness's projection of
	// the same case (sim.RunCase, then Outcome.Record). A query fills
	// only the sub-records of the schemes it ran: rtr, fcp and mrc their
	// own, any other scheme its entry under schemes.
	Case *sim.CaseRecord `json:"case,omitempty"`

	// en is the cache entry the answer was served from and sess the
	// prepared RTR session it rode (nil when RTR did not run): the
	// encoder splices en's encoding of sess's phase-1 series, built
	// once per session, instead of encoding it per answer.
	en   *entry
	sess *core.Session
}

// ClientError marks a query the engine rejected as malformed (unknown
// topology, bad failure descriptor, out-of-range pair, bad scheme) —
// an HTTP 400, distinct from server-side failures.
type ClientError struct{ Msg string }

func (e *ClientError) Error() string { return e.Msg }

func badRequestf(format string, args ...any) error {
	return &ClientError{Msg: fmt.Sprintf(format, args...)}
}

// Query answers one recovery question. Safe for concurrent use.
func (e *Engine) Query(q Query) (*Response, error) {
	e.st.queries.Add(1)
	resp, err := e.query(q)
	if err != nil {
		var ce *ClientError
		if errors.As(err, &ce) {
			e.st.clientErrors.Add(1)
		}
		return nil, err
	}
	return resp, nil
}

func (e *Engine) query(q Query) (*Response, error) {
	w := e.worlds[q.Topo]
	if w == nil {
		return nil, badRequestf("unknown topology %q (serving %s)", q.Topo, strings.Join(e.names, ", "))
	}
	scheme, set, err := checkScheme(w, e.orDefault(q.Scheme))
	if err != nil {
		return nil, err
	}
	if err := checkPair(w, q.Topo, q.Src, q.Dst); err != nil {
		return nil, err
	}
	en, hit, err := e.lookupEntry(w, q.Topo, q.Failure)
	if err != nil {
		return nil, err
	}
	return e.answerPair(w, q.Topo, en, hit, scheme, set, q.Src, q.Dst)
}

// orDefault substitutes the engine's configured default scheme for an
// omitted one; an explicit query scheme always wins.
func (e *Engine) orDefault(scheme string) string {
	if scheme == "" {
		return e.defScheme
	}
	return scheme
}

// checkScheme defaults a query's scheme and resolves it to the schemes
// it runs (sim.SchemeSet). A scheme asked for by name whose Prepare
// rejects the world (mrc on a scale-mode world without an MRC engine)
// is a client error, not a server failure; under all, such a scheme
// runs and reports itself skipped.
func checkScheme(w *sim.World, scheme string) (string, []sim.Scheme, error) {
	if scheme == "" {
		scheme = SchemeAll
	}
	set, err := sim.SchemeSet(scheme)
	if err != nil {
		return "", nil, badRequestf("%v (or all)", err)
	}
	if scheme != SchemeAll {
		if err := set[0].Prepare(w); err != nil {
			return "", nil, badRequestf("%v", err)
		}
	}
	return scheme, set, nil
}

func checkPair(w *sim.World, topo string, src, dst int) error {
	n := w.Topo.G.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return badRequestf("pair (%d, %d) out of range on %s (%d nodes)", src, dst, topo, n)
	}
	if src == dst {
		return badRequestf("source and destination are both %d", src)
	}
	return nil
}

// lookupEntry fingerprints the failure descriptor from its text and
// performs the one converged-state cache lookup — the unit of work a
// batch amortizes over all its pairs. Spellings that differ in blanks,
// in how a number is written, or in the order and repetition of link
// IDs map to one fingerprint and therefore one cache entry; the order
// of the areas is part of the fingerprint. Nothing here reads the
// topology beyond its link count: the failure's ground truth is built
// by entry.state, once per entry.
func (e *Engine) lookupEntry(w *sim.World, topoName, failureDesc string) (*entry, bool, error) {
	var few [128]byte
	key := append(append(few[:0], topoName...), 0)
	fpAt := len(key)
	// A client replaying a fingerprint the engine handed back
	// (Response.Failure) is found under its own bytes, which saves the
	// scan that would respell them unchanged.
	if en, ok := e.cache.hit(append(key, failureDesc...)); ok {
		e.st.hits.Add(1)
		return en, true, nil
	}
	key, err := failure.AppendCanonical(key, failureDesc, w.Topo.G.NumLinks())
	if err != nil {
		return nil, false, &ClientError{Msg: err.Error()}
	}
	en, hit, evicted := e.cache.get(key, fpAt)
	if hit {
		e.st.hits.Add(1)
	} else {
		e.st.misses.Add(1)
	}
	if evicted > 0 {
		e.st.evictions.Add(int64(evicted))
	}
	return en, hit, nil
}

// answerPair answers one (src, dst) pair on a cached entry by running
// set, the schemes the query's scheme name resolved to. topoName is the
// serving name (the worlds map key, which an injected world may carry
// independently of its topology's own name).
func (e *Engine) answerPair(w *sim.World, topoName string, en *entry, hit bool, scheme string, set []sim.Scheme, qsrc, qdst int) (*Response, error) {
	resp := &Response{Topo: topoName, Failure: en.fp, Src: qsrc, Dst: qdst, Scheme: scheme, CacheHit: hit}
	st := en.state(w)
	src, dst := graph.NodeID(qsrc), graph.NodeID(qdst)
	if st.Scenario().NodeDown(src) {
		resp.Disposition = DispInitiatorDown
		return resp, nil
	}
	c, err := sim.CaseAt(st, src, dst)
	if err == sim.ErrNoRoute {
		resp.Disposition = DispNoRoute
		return resp, nil
	}
	fillConverged(resp, st, src, dst)
	if err != nil {
		resp.Disposition = DispForwarded
		if affected, err := w.Tables.PathFails(src, dst, st.Scenario()); err == nil {
			resp.PathAffected = affected
		}
		return resp, nil
	}

	// A genuine recovery case, the one sim.CasesFromScenario would
	// enumerate for this triple. RTR rides the State's shared session
	// and every scheme grades against its shared truth tree, so
	// repeated queries and batch members pay only the per-destination
	// tail.
	resp.Disposition = DispRecovery
	resp.Recoverable = c.Recoverable
	var rt core.Route
	out := sim.RunCase(w, c, set, &rt)
	if out.Err != nil {
		e.st.runnerErrors.Add(1)
	}
	if k := e.checkers[topoName]; k != nil {
		e.st.checked.Add(1)
		if vs := k.Check(out); len(vs) > 0 {
			e.st.violations.Add(int64(len(vs)))
			return nil, fmt.Errorf("serve: %w", vs[0])
		}
	}
	rec := out.Record()
	resp.Case = &rec
	resp.en, resp.sess = en, out.RTR.Session
	return resp, nil
}

// Pair is one (src, dst) member of a batch.
type Pair struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Batch asks many (src, dst) pairs against one failure descriptor on
// one topology. The whole batch costs a single converged-state cache
// lookup and at most one warm-up; per-pair work is only the tail
// (next-hop probe, protocol runs for genuine recovery cases).
type Batch struct {
	Topo    string `json:"topo"`
	Failure string `json:"failure"`
	Scheme  string `json:"scheme,omitempty"`
	Pairs   []Pair `json:"pairs"`
}

// MaxBatchPairs bounds one batch (a client wanting more splits it;
// each split still usually hits the warm entry).
const MaxBatchPairs = 4096

// BatchResponse is the engine's answer to a Batch: one Response per
// pair, in input order.
type BatchResponse struct {
	Topo    string `json:"topo"`
	Failure string `json:"failure"`
	Scheme  string `json:"scheme"`
	// CacheHit reports whether the batch's one converged-state lookup
	// was warm.
	CacheHit bool        `json:"cache_hit,omitempty"`
	Results  []*Response `json:"results"`
}

// QueryBatch answers a batch of pairs sharing one failure instance.
// Safe for concurrent use. Each pair counts as one query in the stats;
// the batch performs exactly one cache lookup.
func (e *Engine) QueryBatch(b Batch) (*BatchResponse, error) {
	e.st.batches.Add(1)
	e.st.queries.Add(int64(len(b.Pairs)))
	resp, err := e.queryBatch(b)
	if err != nil {
		var ce *ClientError
		if errors.As(err, &ce) {
			e.st.clientErrors.Add(1)
		}
		return nil, err
	}
	return resp, nil
}

func (e *Engine) queryBatch(b Batch) (*BatchResponse, error) {
	if len(b.Pairs) == 0 {
		return nil, badRequestf("batch carries no pairs")
	}
	if len(b.Pairs) > MaxBatchPairs {
		return nil, badRequestf("batch carries %d pairs (limit %d)", len(b.Pairs), MaxBatchPairs)
	}
	w := e.worlds[b.Topo]
	if w == nil {
		return nil, badRequestf("unknown topology %q (serving %s)", b.Topo, strings.Join(e.names, ", "))
	}
	scheme, set, err := checkScheme(w, e.orDefault(b.Scheme))
	if err != nil {
		return nil, err
	}
	// Validate every pair before any work: a malformed batch is
	// rejected whole rather than answered halfway.
	for _, p := range b.Pairs {
		if err := checkPair(w, b.Topo, p.Src, p.Dst); err != nil {
			return nil, err
		}
	}
	en, hit, err := e.lookupEntry(w, b.Topo, b.Failure)
	if err != nil {
		return nil, err
	}
	out := &BatchResponse{
		Topo:     b.Topo,
		Failure:  en.fp,
		Scheme:   scheme,
		CacheHit: hit,
		Results:  make([]*Response, 0, len(b.Pairs)),
	}
	for _, p := range b.Pairs {
		r, err := e.answerPair(w, b.Topo, en, hit, scheme, set, p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, r)
	}
	return out, nil
}

// fillConverged attaches the post-convergence route extras when the
// destination is live and reachable on the surviving topology.
func fillConverged(resp *Response, st *converged.State, src, dst graph.NodeID) {
	if st.Scenario().NodeDown(dst) {
		return
	}
	post := st.Tables()
	if cost, ok := post.Dist(src, dst); ok {
		resp.ConvergedCost = cost
		if h, ok := post.Hops(src, dst); ok {
			resp.ConvergedHops = h
		}
	}
}
