package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/converged"
	"repro/internal/failure"
	"repro/internal/sim"
)

// TestHammerBitIdentical is the concurrency proof for the serving
// layer (run under -race in CI): N goroutines fire the same query mix
// — every scheme, repeated instances, enough distinct instances to
// force LRU evictions mid-flight — against one shared engine, and
// every response must be byte-identical to the serial pass. The
// subtest is named for the one phase-2 route engine the engine runs.
func TestHammerBitIdentical(t *testing.T) {
	t.Run("dijkstra", hammerBitIdentical)
}

func hammerBitIdentical(t *testing.T) {
	e, err := New(Config{Topos: []string{"AS1239"}, Seed: testSeed, CacheEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := hammerQueries(t, e, "AS1239")

	// Serial reference pass.
	want := make([]string, len(queries))
	for i, q := range queries {
		resp, err := e.Query(q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		resp.CacheHit = false // hit/miss depends on interleaving, not the answer
		want[i] = mustJSON(t, resp)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			// Each worker walks the list at its own offset so the same
			// instant mixes schemes and instances.
			for i := range queries {
				j := (i + wk*3) % len(queries)
				resp, err := e.Query(queries[j])
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %v", wk, j, err)
					return
				}
				resp.CacheHit = false
				if got := mustJSON(t, resp); got != want[j] {
					errs <- fmt.Errorf("worker %d query %d diverged:\n got  %s\n want %s", wk, j, got, want[j])
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.Stats()
	if st.Evictions == 0 {
		t.Error("hammer never evicted; cache pressure too low to prove eviction safety")
	}
	if st.RunnerErrors > 0 {
		t.Errorf("%d runner errors under load", st.RunnerErrors)
	}
}

// hammerQueries builds a deterministic mix: cases from several
// distinct failure instances (more than the cache holds), each asked
// under every scheme.
func hammerQueries(t *testing.T, e *Engine, name string) []Query {
	t.Helper()
	var queries []Query
	for _, s := range []string{SchemeAll, SchemeRTR, SchemeFCP, SchemeMRC} {
		queries = append(queries, mixQueries(e, name, 5, 3, s)...)
	}
	if len(queries) < 4*3*3 {
		t.Fatalf("only %d queries in the hammer mix", len(queries))
	}
	return queries
}

// mixQueries enumerates up to pairs cases from each of `failures`
// distinct random failure instances on the engine's world.
func mixQueries(e *Engine, name string, failures, pairs int, scheme string) []Query {
	w := e.World(name)
	rng := rand.New(rand.NewSource(21))
	var queries []Query
	scenarios := 0
	for draws := 0; scenarios < failures && draws < sim.MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		cases := append(rec, irr...)
		if len(cases) == 0 {
			continue
		}
		if len(cases) > pairs {
			cases = cases[:pairs]
		}
		for _, c := range cases {
			queries = append(queries, Query{
				Topo: name, Failure: sc.Desc(),
				Src: int(c.Initiator), Dst: int(c.Dst), Scheme: scheme,
			})
		}
		scenarios++
	}
	return queries
}

// TestConcurrentFirstQueriesComposeOnce: the lookup of a new instance
// inserts an empty entry — nothing topology-sized is built in
// lru.get, hence nothing under the cache lock — and N concurrent first
// queries for one new instance share one entry whose ground truth is
// built once, by whichever gets there first (run under -race: a second
// build would be a second write of entry.st).
func TestConcurrentFirstQueriesComposeOnce(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	w := e.World("AS1239")
	q := testCaseQuery(t, e, "AS1239")

	en, hit, err := e.lookupEntry(w, q.Topo, clientSpelling(q.Failure))
	if err != nil || hit {
		t.Fatalf("first lookup: hit %v, err %v", hit, err)
	}
	if en.fp != q.Failure || en.st != nil {
		t.Fatalf("lookup left fingerprint %q, state %p; want %q and nothing built", en.fp, en.st, q.Failure)
	}

	const workers = 8
	fresh := clientSpelling(q.Failure + ";links(0)")
	entries := make([]*entry, workers)
	states := make([]*converged.State, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			en, _, err := e.lookupEntry(w, q.Topo, fresh)
			if err != nil {
				t.Error(err)
				return
			}
			entries[wk], states[wk] = en, en.state(w)
		}(wk)
	}
	wg.Wait()
	for wk := 1; wk < workers; wk++ {
		if entries[wk] != entries[0] || states[wk] != states[0] {
			t.Fatalf("worker %d got entry %p state %p, worker 0 entry %p state %p",
				wk, entries[wk], states[wk], entries[0], states[0])
		}
	}
	if states[0] == nil || !states[0].Scenario().LinkDown(0) {
		t.Error("the shared state is not the queried instance")
	}
	if st := e.Stats(); st.CacheMisses != 2 || st.CacheHits != workers-1 {
		t.Errorf("stats: %d misses / %d hits, want 2 / %d", st.CacheMisses, st.CacheHits, workers-1)
	}
}
