// Package scheme_test is the black-box suite of the scheme seam
// (sim.Scheme and its registry): the conformance contract every
// registered scheme must pass, the builtin schemes' equivalence with
// the typed sim runners, and a toy scheme registered from a test file
// alone that the sweep engine, the serving layer and the invariant
// oracle pick up. It lives outside sim so it can import those
// consumers.
package scheme_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/converged"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/invariant"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/topology"
)

const testSeed = 3

// TestRegistryRoundTrip pins the registration contract: every builtin
// is registered, lookups return the scheme under its own name, unknown
// names fail with a self-explanatory error, and duplicate, anonymous or
// reserved registrations panic at init time.
func TestRegistryRoundTrip(t *testing.T) {
	names := sim.SchemeNames()
	for _, want := range []string{sim.SchemeRTR, sim.SchemeFCP, sim.SchemeMRC, sim.SchemeSpread} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q not registered (have %v)", want, names)
		}
	}
	for _, n := range names {
		s, err := sim.LookupScheme(n)
		if err != nil {
			t.Fatalf("LookupScheme(%q): %v", n, err)
		}
		if s.Name() != n {
			t.Errorf("LookupScheme(%q).Name() = %q", n, s.Name())
		}
	}
	if _, err := sim.LookupScheme("ospf"); err == nil {
		t.Error("unknown scheme resolved")
	} else if !strings.Contains(err.Error(), sim.SchemeRTR) {
		t.Errorf("unknown-scheme error %q does not list registered names", err)
	}
	all, err := sim.SchemeSet(sim.SchemeAll)
	if err != nil || len(all) != 3 || all[0].Name() != sim.SchemeRTR || all[1].Name() != sim.SchemeFCP || all[2].Name() != sim.SchemeMRC {
		t.Errorf("SchemeSet(all) = %v, %v; want rtr, fcp, mrc", all, err)
	}
	mustPanic(t, "duplicate", func() { sim.RegisterScheme(sim.Spread{K: 1}) })
	mustPanic(t, "empty name", func() { sim.RegisterScheme(namedScheme{name: ""}) })
	mustPanic(t, "reserved name", func() { sim.RegisterScheme(namedScheme{name: sim.SchemeAll}) })
}

type namedScheme struct {
	sim.Spread
	name string
}

func (s namedScheme) Name() string { return s.name }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("Register with %s did not panic", what)
		}
	}()
	fn()
}

// testCases draws up to n recovery cases on the world.
func testCases(t *testing.T, w *sim.World, n int) []*sim.Case {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var out []*sim.Case
	for draws := 0; len(out) < n && draws < sim.MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		out = append(out, rec...)
		out = append(out, irr...)
	}
	if len(out) == 0 {
		t.Fatal("no cases drawn")
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TestConformance is the suite every registered scheme must pass:
// Prepare accepts a full world, a scheme that accepts a scale-mode
// world runs on it (mrc, which needs the MRC engine, must refuse it),
// and its answers pass the oracle (invariant.Check: the paper's three
// get their dedicated checks, any other scheme the contract every
// Result keeps — trajectory, delivery and grade against the independent
// ground truth) and are deterministic — a RunCase rerun projects onto
// Run's result — on the paper's example and on AS1239 cases.
func TestConformance(t *testing.T) {
	w, err := sim.NewWorldFrom(topology.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sim.NewWorldFromConfig(topology.PaperExample(), sim.WorldConfig{Scale: true})
	if err != nil {
		t.Fatal(err)
	}
	as, err := sim.NewWorld("AS1239", testSeed)
	if err != nil {
		t.Fatal(err)
	}
	worlds := []*sim.World{w, as}
	cases := [][]*sim.Case{testCases(t, w, 16), testCases(t, as, 64)}
	scaleCases := testCases(t, ws, 4)
	for _, name := range sim.SchemeNames() {
		t.Run(name, func(t *testing.T) {
			s, err := sim.LookupScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Prepare(w); err != nil {
				t.Fatalf("Prepare on a full world: %v", err)
			}
			if err := s.Prepare(ws); (err != nil) != (name == sim.SchemeMRC) {
				t.Fatalf("Prepare on scale world: err=%v", err)
			} else if err == nil {
				for _, c := range scaleCases {
					if _, err := s.Run(ws, c); err != nil {
						t.Fatalf("Run on scale world (%d->%d): %v", c.Initiator, c.Dst, err)
					}
				}
			}
			for i, w := range worlds {
				if err := s.Prepare(w); err != nil {
					t.Fatalf("Prepare on %s: %v", w.Topo.Name, err)
				}
				k := invariant.New(w)
				for _, c := range cases[i] {
					r, err := s.Run(w, c)
					if err != nil {
						t.Fatalf("%s: Run(%d->%d): %v", w.Topo.Name, c.Initiator, c.Dst, err)
					}
					o := sim.RunCase(w, c, []sim.Scheme{s}, new(core.Route))
					if vs := k.Check(o); len(vs) > 0 {
						t.Errorf("%s: %v (first of %d violations)", w.Topo.Name, vs[0], len(vs))
					}
					// Determinism: RunCase's answer projects onto what Run
					// returned (schemes may not carry hidden per-run state).
					if again := o.Result(name); o.Err != nil || !reflect.DeepEqual(r, again) {
						t.Errorf("%s: case %d->%d: rerun differs (err %v):\n%+v\n%+v", w.Topo.Name, c.Initiator, c.Dst, o.Err, r, again)
					}
				}
			}
		})
	}
}

// walks keeps the non-empty trajectories, as the builtins' projections
// do.
func walks(ws ...routing.Walk) []routing.Walk {
	out := make([]routing.Walk, 0, len(ws))
	for _, w := range ws {
		if len(w.Records) > 0 {
			out = append(out, w)
		}
	}
	return out
}

// TestBuiltinDifferentialAllTopologies proves the registry is a
// different dispatch shape, not a different answer: on every bundled
// topology, the builtin schemes' Run output is exactly the projection
// of the direct sim runners on the same cases.
func TestBuiltinDifferentialAllTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world per bundled topology")
	}
	for _, name := range topology.ASNames() {
		t.Run(name, func(t *testing.T) {
			w, err := sim.NewWorld(name, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range testCases(t, w, 12) {
				truth := spt.Compute(w.Topo.G, c.Initiator, c.Scenario)
				check := func(scheme string, got sim.Result, want sim.Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s on %d->%d: %v", scheme, c.Initiator, c.Dst, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s on %d->%d differs:\nregistry %+v\nsim      %+v",
							scheme, c.Initiator, c.Dst, got, want)
					}
				}

				s, _ := sim.LookupScheme(sim.SchemeRTR)
				got, err := s.Run(w, c)
				rr, rerr := sim.RunRTR(w, c, truth)
				if rerr != nil {
					t.Fatal(rerr)
				}
				rtrWant := sim.Result{
					Delivered: rr.Recovered, Optimal: rr.Optimal, Stretch: rr.Stretch,
					SPCalcs: rr.SPCalcs, NoLiveNeighbor: rr.NoLiveNeighbor,
					Walks: walks(rr.Phase2),
				}
				check(sim.SchemeRTR, got, rtrWant, err)

				// Capped at one candidate, rtr-spread is RTR: the primary
				// route, the same data walk, and the same grade (both
				// grade through sim.Grade — the registry side against
				// the State's warm tree, the sim side against the cold
				// one computed above).
				got, err = sim.Spread{K: 1}.Run(w, c)
				if len(got.Walks) == 0 {
					got.Walks = walks() // spread's early exits leave nil where rtr's projection leaves empty
				}
				check(sim.SchemeSpread+"/k=1", got, rtrWant, err)

				s, _ = sim.LookupScheme(sim.SchemeFCP)
				got, err = s.Run(w, c)
				fr, ferr := sim.RunFCP(w, c, truth)
				if ferr != nil {
					t.Fatal(ferr)
				}
				check(sim.SchemeFCP, got, sim.Result{
					Delivered: fr.Delivered, Optimal: fr.Optimal, Stretch: fr.Stretch,
					SPCalcs: fr.SPCalcs, Walks: walks(fr.Walk),
				}, err)

				s, _ = sim.LookupScheme(sim.SchemeMRC)
				got, err = s.Run(w, c)
				mr, merr := sim.RunMRC(w, c, truth)
				if merr != nil {
					t.Fatal(merr)
				}
				check(sim.SchemeMRC, got, sim.Result{
					Delivered: mr.Delivered, Optimal: mr.Optimal, Stretch: mr.Stretch,
					Skipped: mr.Skipped, Walks: walks(mr.Walk),
				}, err)
			}
		})
	}
}

// TestSpreadBoundedStretch pins the congestion scheme's contract: the
// chosen candidate never exceeds the slack budget relative to the
// optimal recovery path, and delivery matches RTR on recoverable
// cases (candidates live in the same pruned view, so a deliverable
// primary implies the detours were computed under identical failure
// knowledge — but forwarding may still hit an uncollected failure,
// exactly like RTR).
func TestSpreadBoundedStretch(t *testing.T) {
	w, err := sim.NewWorld("AS1239", testSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.Spread{K: sim.SpreadK}
	for _, c := range testCases(t, w, 24) {
		r, err := s.Run(w, c)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := sim.RunRTR(w, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.NoLiveNeighbor != rr.NoLiveNeighbor {
			t.Errorf("case %d->%d: NoLiveNeighbor %v vs RTR %v", c.Initiator, c.Dst, r.NoLiveNeighbor, rr.NoLiveNeighbor)
		}
		if r.Delivered && rr.Optimal && r.Stretch > sim.SpreadSlack*rr.Stretch+1e-9 {
			t.Errorf("case %d->%d: stretch %v exceeds slack %v over RTR's %v",
				c.Initiator, c.Dst, r.Stretch, sim.SpreadSlack, rr.Stretch)
		}
	}
}

// TestSpreadSharedSessionMatchesFresh is the property the SPCalcs
// change exists to preserve: rtr-spread riding a State's shared,
// read-only session answers exactly as it does on a session nobody
// else has touched — same walks, same grade, SPCalcs still 1 + detour
// attempts — sequentially and from 8 goroutines on one State.
func TestSpreadSharedSessionMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world per bundled topology")
	}
	s := sim.Spread{K: sim.SpreadK}
	for _, name := range topology.ASNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := sim.NewWorld(name, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			rec, irr := sim.CollectBothG(w, failure.Default(), rand.New(rand.NewSource(11)), 24, 24)
			fresh := append(rec, irr...)
			// fresh[i] carries no State, so each Run opens a session
			// nobody else touches; shared[i] is the same case built on
			// its scenario's one State.
			states := map[*failure.Scenario]*converged.State{}
			shared := make([]*sim.Case, len(fresh))
			want := make([]sim.Result, len(fresh))
			detoured := 0
			for i, c := range fresh {
				if states[c.Scenario] == nil {
					states[c.Scenario] = w.Converged(c.Scenario)
				}
				if shared[i], err = sim.CaseAt(states[c.Scenario], c.Initiator, c.Dst); err != nil {
					t.Fatal(err)
				}
				if want[i], err = s.Run(w, c); err != nil {
					t.Fatal(err)
				}
				if want[i].SPCalcs > 1 {
					detoured++
				}
			}
			if detoured == 0 {
				t.Fatal("no case computed a detour; test is vacuous")
			}
			check := func(i int) error {
				got, err := s.Run(w, shared[i])
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, want[i]) {
					return fmt.Errorf("case %d: shared session %+v, fresh session %+v", i, got, want[i])
				}
				return nil
			}
			for i := range shared {
				if err := check(i); err != nil {
					t.Fatal(err)
				}
			}
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func(g int) {
					for i := range shared {
						if err := check((i + g*len(shared)/8) % len(shared)); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}(g)
			}
			for g := 0; g < 8; g++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}
