package sweep

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// progressEvery is the interval between Engine.Progress status lines.
const progressEvery = 10 * time.Second

// Engine executes a sweep Spec over a worker pool, checkpointing as it
// goes. The zero Dir disables checkpointing (everything stays in
// memory); Resume and interruption tolerance need a Dir.
type Engine struct {
	Spec Spec
	// Worlds maps every topology named in the spec to its built world.
	// Worlds must be constructed from the spec's BaseSeed by the
	// caller; the engine only derives per-shard RNGs.
	Worlds map[string]*sim.World
	// Workers is the shard-level parallelism (1 when <= 0). Shards run
	// their cases serially inside, so total parallelism == Workers.
	Workers int
	// Dir is the checkpoint directory (results.jsonl + manifest.json).
	Dir string
	// Resume loads previously recorded shards from Dir and skips them.
	Resume bool
	// MaxShards, when > 0, stops the run after that many shards have
	// been executed in this process (loaded shards don't count). It
	// exists to exercise the interrupt path deterministically in tests
	// and smoke targets; a SIGINT-cancelled context behaves the same
	// way at an arbitrary point.
	MaxShards int
	// Progress, when set, receives a one-line status every
	// progressEvery.
	Progress io.Writer

	// gen is the parsed Spec.Failure generator, resolved fail-fast at
	// the top of Run before any shard executes.
	gen failure.Generator
}

// RunResult is the outcome of Engine.Run: every known shard result
// (loaded + executed) keyed for merging, plus interruption state.
type RunResult struct {
	Spec Spec
	// Plan is the full shard plan; merges follow its order.
	Plan    []Shard
	Results map[string]*ShardResult
	// Loaded counts shards recovered from the checkpoint; Executed
	// counts shards computed by this run.
	Loaded   int
	Executed int
	// Interrupted reports that the run stopped (context cancellation
	// or MaxShards) before completing the plan.
	Interrupted bool
}

// Run executes all shards not already checkpointed. Cancelling ctx
// stops the engine from starting new shards; in-flight shards finish
// and are checkpointed, so every shard is either fully recorded or
// untouched — the invariant resume depends on.
func (e *Engine) Run(ctx context.Context) (*RunResult, error) {
	var err error
	e.gen, err = failure.ParseSpecOrDefault(e.Spec.Failure)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	plan := e.Spec.Shards()
	if len(e.Spec.Fig11Radii) > 0 && e.Spec.Fig11Areas > 0 {
		if _, ok := e.gen.(failure.FixedRadius); !ok {
			return nil, fmt.Errorf("sweep: generator %q cannot pin a radius; Fig. 11 sweeps need a failure.FixedRadius model",
				e.gen.Name())
		}
	}
	for _, sh := range plan {
		w := e.Worlds[sh.Topology]
		if w == nil {
			return nil, fmt.Errorf("sweep: no world for topology %q", sh.Topology)
		}
		// Congestion shards resolve their scheme fail-fast, the
		// scheme's Prepare hook vets the world (e.g. mrc on a scale-mode
		// world), and the traffic matrix must fit in the topology's
		// ordered pairs, all before any shard spends compute.
		if sh.Kind == KindUtil {
			s, err := sim.LookupScheme(sh.Scheme)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			if err := s.Prepare(w); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			if n, pairs := w.Topo.G.NumNodes(), e.Spec.utilPairs(); pairs > traffic.MaxPairs(n) {
				return nil, fmt.Errorf("sweep: %d traffic pairs exceed the %d ordered node pairs of %s", pairs, traffic.MaxPairs(n), sh.Topology)
			}
		}
	}
	res := &RunResult{
		Spec:    e.Spec,
		Plan:    plan,
		Results: make(map[string]*ShardResult, len(plan)),
	}

	var ckpt *checkpointWriter
	if e.Dir != "" {
		var loaded map[string]*ShardResult
		var err error
		ckpt, loaded, err = openCheckpoint(e.Dir, e.Spec, len(plan), e.Resume)
		if err != nil {
			return nil, err
		}
		defer ckpt.close()
		for k, v := range loaded {
			res.Results[k] = v
		}
		res.Loaded = len(loaded)
	}

	var pending []Shard
	for _, sh := range plan {
		if _, ok := res.Results[sh.Key]; !ok {
			pending = append(pending, sh)
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.Workers
	if workers <= 0 {
		workers = 1
	}

	var executed atomic.Int64
	if e.Progress != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(progressEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					fmt.Fprintf(e.Progress, "sweep: %d/%d shards done (%d resumed)\n",
						res.Loaded+int(executed.Load()), len(plan), res.Loaded)
				}
			}
		}()
	}

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	par.ForContext(runCtx, len(pending), workers, func(i int) {
		sh := pending[i]
		start := time.Now()
		sr, err := e.runShard(sh)
		if err != nil {
			fail(fmt.Errorf("shard %s: %w", sh.Key, err))
			return
		}
		sr.ElapsedNs = time.Since(start).Nanoseconds()
		if ckpt != nil {
			if err := ckpt.append(sr); err != nil {
				fail(err)
				return
			}
		}
		mu.Lock()
		res.Results[sh.Key] = sr
		mu.Unlock()
		if n := executed.Add(1); e.MaxShards > 0 && int(n) >= e.MaxShards {
			cancel()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	res.Executed = int(executed.Load())
	res.Interrupted = res.Executed < len(pending)
	return res, nil
}

// runShard computes one shard from scratch. All randomness comes from
// the shard's derived seed, so the result is a pure function of
// (spec, shard identity) — independent of workers, order, process.
// With Spec.Check set, every case's outcome additionally passes the
// invariant oracle; the first violation aborts the shard (and, via
// Run's fail-fast, the sweep) with a repro-carrying error.
func (e *Engine) runShard(sh Shard) (*ShardResult, error) {
	w := e.Worlds[sh.Topology]
	rng := rand.New(rand.NewSource(sh.Seed(e.Spec.BaseSeed)))
	sr := &ShardResult{
		Key:      sh.Key,
		Kind:     sh.Kind,
		Topology: sh.Topology,
		Block:    sh.Block,
		Radius:   sh.Radius,
	}
	switch sh.Kind {
	case KindUtil:
		util, err := e.runUtilShard(sh, w, rng)
		if err != nil {
			return nil, err
		}
		sr.Scheme = sh.Scheme
		sr.Util = util
	case KindFig11:
		// Fig. 11 shards only count failed paths — no per-case
		// protocol output exists for Check to validate. The radius
		// pin goes through the generator (validated as FixedRadius in
		// Run); the default disk model draws bit-identically to the
		// legacy RandomArea(rng, r, r) path.
		pinned := e.gen.(failure.FixedRadius).WithRadius(sh.Radius)
		for i := 0; i < sh.Areas; i++ {
			sc := pinned.Generate(w.Topo, rng)
			f, ir := sim.CountFailedPaths(w, sc)
			sr.Failed += f
			sr.Irrecoverable += ir
		}
	default:
		rec, irr := sim.CollectBothSampledG(w, e.gen, rng, sh.Rec, sh.Irr, e.Spec.DstSample)
		// Cases run serially inside a shard: the engine owns the
		// parallelism, and the per-case order defines the record order.
		recOut, irrOut := sim.RunAllN(w, rec, 1), sim.RunAllN(w, irr, 1)
		if e.Spec.Check {
			k := invariant.New(w)
			for _, o := range slices.Concat(recOut, irrOut) {
				if vs := k.Check(o); len(vs) > 0 {
					return nil, vs[0]
				}
			}
		}
		sr.Rec, sr.Irr = sim.Records(recOut), sim.Records(irrOut)
	}
	return sr, nil
}

// runUtilShard measures one (topology, scheme) congestion shard: a
// gravity matrix synthesized from the shard RNG, capacity calibrated
// to the heavy-load operating point on clean tables, then the matrix
// replayed under the spec's failure draws with the named scheme
// carrying recovery traffic. Post columns aggregate by max across
// scenarios; with Spec.Check set, the outcome of every recovery case
// the replay runs passes the invariant oracle, and the result passes
// the utilization oracle before the shard is recorded.
func (e *Engine) runUtilShard(sh Shard, w *sim.World, rng *rand.Rand) (*traffic.Result, error) {
	s, err := sim.LookupScheme(sh.Scheme)
	if err != nil {
		return nil, err
	}
	m, err := traffic.Gravity(w.Topo, e.Spec.utilPairs(), rng)
	if err != nil {
		return nil, err
	}
	base := traffic.Baseline(w, m)
	capacity := traffic.CalibrateCapacity(base, traffic.HeavyLoadTarget)
	res := &traffic.Result{
		Topology: sh.Topology,
		Scheme:   sh.Scheme,
		Pairs:    len(m.Demands),
		Capacity: capacity,
		Pre:      traffic.Summarize(base, capacity, nil, w.Topo.G),
	}
	var k *invariant.Checker
	if e.Spec.Check {
		k = invariant.New(w)
	}
	set := []sim.Scheme{s}
	var rt core.Route
	run := func(c *sim.Case) (bool, []routing.Walk, error) {
		o := sim.RunCase(w, c, set, &rt)
		if o.Err != nil {
			return false, nil, o.Err
		}
		if k != nil {
			if vs := k.Check(o); len(vs) > 0 {
				return false, nil, vs[0]
			}
		}
		r := o.Result(s.Name())
		return r.Delivered, r.Walks, nil
	}
	for i := 0; i < e.Spec.utilScenarios(); i++ {
		sc := e.gen.Generate(w.Topo, rng)
		load, fl, err := traffic.RunUnder(w, w.Converged(sc), m, run)
		if err != nil {
			return nil, err
		}
		res.Merge(traffic.Summarize(load, capacity, sc, w.Topo.G), fl)
	}
	if e.Spec.Check {
		if vs := invariant.CheckUtil(*res, traffic.HeavyLoadTarget); len(vs) > 0 {
			return nil, vs[0]
		}
	}
	return res, nil
}
