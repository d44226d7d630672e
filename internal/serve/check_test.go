package serve

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/sim"
)

// TestCheckReadsTheServedAnswer: a checked engine checks the answer it
// served, not a re-run of the case. Corrupting the failed_link header
// of the cache entry's shared session must fail the next query that
// rides it.
func TestCheckReadsTheServedAnswer(t *testing.T) {
	e, err := New(Config{Topos: []string{"AS1239"}, Seed: testSeed, CacheEntries: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	q := testCaseQuery(t, e, "AS1239")
	if _, err := e.Query(q); err != nil {
		t.Fatalf("clean query: %v", err)
	}
	w := e.World(q.Topo)
	en, hit, err := e.lookupEntry(w, q.Topo, q.Failure)
	if err != nil || !hit {
		t.Fatalf("entry lookup: hit %v, err %v", hit, err)
	}
	c, err := sim.CaseAt(en.state(w), graph.NodeID(q.Src), graph.NodeID(q.Dst))
	if err != nil {
		t.Fatal(err)
	}
	sess := en.state(w).Session(c.Initiator, c.Trigger).Sess
	if sess == nil {
		t.Fatal("the query's initiator opened no session")
	}
	col := sess.Collected()
	// The first walked link is live: recording it as failed is a lie.
	col.Header.FailedLinks = append(col.Header.FailedLinks, col.Walk.Records[0].Link)
	_, err = e.Query(q)
	var v invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("query riding a corrupted session: err %v, want an invariant violation", err)
	}
	if st := e.Stats(); st.Checked != 2 || st.Violations == 0 {
		t.Errorf("stats: %d checked, %d violations", st.Checked, st.Violations)
	}
}

// TestOracleNoticeOncePerWorld: a checked engine keeps one oracle per
// world, so serving a world past the oracle gate logs the skip notice
// once, however many queries it answers.
func TestOracleNoticeOncePerWorld(t *testing.T) {
	base, q := scaleEngineQuery(t, 9000)
	e, err := New(Config{Worlds: map[string]*sim.World{"big": base.World("big")}, CacheEntries: 4, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	var notices []string
	e.checkers["big"].Log = func(msg string) { notices = append(notices, msg) }
	const queries = 5
	for i := 0; i < queries; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if len(notices) != 1 {
		t.Fatalf("%d checked queries logged %d oracle notices, want 1: %q", queries, len(notices), notices)
	}
	if st := e.Stats(); st.Checked != queries {
		t.Errorf("%d queries checked, want %d", st.Checked, queries)
	}
}
