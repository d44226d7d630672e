package serve

import "testing"

// BenchmarkWarmQuery times steady-state warm-cache serving on the
// largest bundled topology: after a priming pass every query hits a
// cached converged state, so an op is protocol runs plus lookups.
func BenchmarkWarmQuery(b *testing.B) {
	e, err := New(Config{Topos: []string{"AS7018"}, Seed: testSeed, CacheEntries: 64})
	if err != nil {
		b.Fatal(err)
	}
	queries := mixQueries(e, "AS7018", 5, 3, SchemeAll)
	if len(queries) == 0 {
		b.Fatal("no queries")
	}
	for _, q := range queries { // prime
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoCacheQuery times the cache-disabled engine: every query
// rebuilds the post-failure converged state via the incremental
// recompute before the protocol runs.
func BenchmarkNoCacheQuery(b *testing.B) {
	e, err := New(Config{Topos: []string{"AS7018"}, Seed: testSeed})
	if err != nil {
		b.Fatal(err)
	}
	queries := mixQueries(e, "AS7018", 5, 3, SchemeAll)
	if len(queries) == 0 {
		b.Fatal("no queries")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
