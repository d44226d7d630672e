package serve

import "testing"

// BenchmarkWarmQuery times steady-state warm-cache serving on the
// largest bundled topology: after a priming pass every query hits a
// cached converged state, so an op is protocol runs plus lookups. The
// queries replay canonical fingerprints, which are found under their
// own bytes.
func BenchmarkWarmQuery(b *testing.B) { benchWarmQuery(b, false) }

// BenchmarkWarmQueryClientSpelling is BenchmarkWarmQuery with every
// descriptor spelled the way a client composing it would, so each op
// also fingerprints the text; the gap between the two is what a hit
// pays for the client's spelling.
func BenchmarkWarmQueryClientSpelling(b *testing.B) { benchWarmQuery(b, true) }

func benchWarmQuery(b *testing.B, respell bool) {
	e, err := New(Config{Topos: []string{"AS7018"}, Seed: testSeed, CacheEntries: 64})
	if err != nil {
		b.Fatal(err)
	}
	queries := mixQueries(e, "AS7018", 5, 3, SchemeAll)
	if len(queries) == 0 {
		b.Fatal("no queries")
	}
	for i := range queries { // prime
		if respell {
			queries[i].Failure = clientSpelling(queries[i].Failure)
		}
		if _, err := e.Query(queries[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
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
