package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/failure"
	"repro/internal/seed"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// topoSeed is the synthesis seed of every topology the benchmark builds:
// the repo-wide default, so the eight worlds are the ones every CLI and
// golden file talks about. -seed drives failures, pairs and shard seeds.
const topoSeed = 1

// Plan sizes are source constants, never derived from timing.
const (
	sweepRows         = 64
	sweepCasesPerKind = 5 // Recoverable = Irrecoverable = BlockCases
	sweepSetupRepeats = 8
)

// sweepLoad is the sweep_cases workload: per pass, sweepRows rows of one
// shard per Table II topology. A timed unit is one shard — a one-shard
// in-memory sweep followed by the Table III/IV merge — and a latency unit
// is one row, so that every latency sample carries the same topology mix.
type sweepLoad struct {
	seed    int64
	dir     string // checkpoint root under -workdir (priming pass only)
	rows    int    // sweepRows (tests shrink it)
	names   []string
	worlds  map[string]*sim.World
	steps   []int64            // per world build: minimum over all repeats so far
	engines []*sweep.Engine    // one per unit
	last    []*sweep.RunResult // per unit: the current pass's result
	ref     []uint64           // per-unit hash of the shard record
	corrupt bool

	lastErr error
	sinkT3  sim.Table3Row
	sinkT4  sim.Table4Row
}

func newSweepLoad(cfg runConfig) *sweepLoad {
	return &sweepLoad{
		seed:    cfg.seed,
		dir:     filepath.Join(cfg.workdir, "sweep-"+fmt.Sprint(cfg.seed)),
		rows:    sweepRows,
		names:   topology.ASNames(),
		corrupt: cfg.corruptExpected,
	}
}

func (l *sweepLoad) units() int      { return len(l.engines) }
func (l *sweepLoad) opsPerUnit() int { return 2 * sweepCasesPerKind }
func (l *sweepLoad) tailQ() float64  { return 0.80 }
func (l *sweepLoad) latGroup() int   { return len(l.names) }
func (l *sweepLoad) minPasses() int  { return 10 }
func (l *sweepLoad) setupK() int     { return sweepSetupRepeats }

// buildWorlds times one sequential NewWorldPhase2 per topology into
// steps (keeping each step's minimum) and returns the fresh worlds.
func buildWorlds(names []string, steps []int64) (map[string]*sim.World, error) {
	worlds := make(map[string]*sim.World, len(names))
	for i, as := range names {
		t0 := now()
		w, err := sim.NewWorldPhase2(as, topoSeed, spt.EngineDijkstra)
		d := since(t0)
		if err != nil {
			return nil, err
		}
		if d < steps[i] {
			steps[i] = d
		}
		worlds[as] = w
	}
	return worlds, nil
}

func (l *sweepLoad) setup(k int) error {
	l.steps = newSteps(len(l.names))
	if err := l.repeatSetup(k); err != nil {
		return err
	}
	l.plan(l.worlds)
	return nil
}

func (l *sweepLoad) setupAgain(k int) (float64, error) {
	err := l.repeatSetup(k)
	return sumSeconds(l.steps), err
}

func (l *sweepLoad) repeatSetup(k int) error {
	for r := 0; r < k; r++ {
		l.worlds = nil
		runtime.GC()
		worlds, err := buildWorlds(l.names, l.steps)
		if err != nil {
			return err
		}
		l.worlds = worlds
	}
	return nil
}

// plan lays out the units row-major (a row is one shard per topology
// under one derived base seed) and pre-builds one engine per unit.
func (l *sweepLoad) plan(worlds map[string]*sim.World) {
	l.engines = l.engines[:0]
	for j := 0; j < l.rows; j++ {
		for _, as := range l.names {
			l.engines = append(l.engines, &sweep.Engine{
				Spec:    l.spec(as, j),
				Worlds:  worlds,
				Workers: 1,
			})
		}
	}
}

func (l *sweepLoad) spec(as string, j int) sweep.Spec {
	return sweep.Spec{
		BaseSeed:      seed.Derive(l.seed, "sweep_cases", as, fmt.Sprint(j)),
		Topologies:    []string{as},
		Recoverable:   sweepCasesPerKind,
		Irrecoverable: sweepCasesPerKind,
		BlockCases:    sweepCasesPerKind,
		Failure:       radiusBand(j, l.rows),
	}
}

// radiusBand is the failure model of row j of n: the paper's disk with
// its radius confined to the j-th of n equal bands of [MinRadius,
// MaxRadius]. Over a pass the rows draw the paper's uniform radius; within
// one plan every band is drawn equally often, so that a plan's cost is not
// at the mercy of how many large disks it happened to get.
func radiusBand(j, n int) string {
	w := (failure.MaxRadius - failure.MinRadius) / float64(n)
	return failure.DiskGen{Min: failure.MinRadius + float64(j)*w, Max: failure.MinRadius + float64(j+1)*w}.Name()
}

func (l *sweepLoad) planHash() string {
	h := newPlanHash()
	for _, e := range l.engines {
		fmt.Fprintf(h, "%s %d %s\n", e.Spec.Topologies[0], e.Spec.BaseSeed, e.Spec.Failure)
	}
	return h.hex()
}

// prime fixes every unit's expected answer — the shard record of an
// in-memory run of the same spec on all cores — requires a checkpointed
// run of one unit per row (each topology in turn) to leave exactly that
// record in results.jsonl, and then runs one unmeasured pass that must
// reproduce every record. The checkpoint path is checked here and priced
// in the layer ledger; it is not in the timed unit, because fsync on a
// shared virtual disk made identical runs differ by a third.
func (l *sweepLoad) prime() error {
	l.ref = make([]uint64, len(l.engines))
	l.last = make([]*sweep.RunResult, len(l.engines))
	defer os.RemoveAll(l.dir)
	for i, e := range l.engines {
		mem := &sweep.Engine{Spec: e.Spec, Worlds: e.Worlds, Workers: runtime.NumCPU()}
		res, err := mem.Run(context.Background())
		if err != nil {
			return fmt.Errorf("unit %d in memory: %w", i, err)
		}
		if l.ref[i], err = recordHash(res); err != nil {
			return err
		}
		if row, col := i/len(l.names), i%len(l.names); col != row%len(l.names) {
			continue
		}
		disk := &sweep.Engine{Spec: e.Spec, Worlds: e.Worlds, Workers: 1, Dir: filepath.Join(l.dir, fmt.Sprintf("u%04d", i))}
		if _, err := disk.Run(context.Background()); err != nil {
			return fmt.Errorf("unit %d checkpointed: %w", i, err)
		}
		data, err := os.ReadFile(filepath.Join(disk.Dir, "results.jsonl"))
		if err != nil {
			return err
		}
		if fnv64(stripElapsed(bytes.TrimSuffix(data, []byte("\n")))) != l.ref[i] {
			return fmt.Errorf("unit %d: results.jsonl differs from the in-memory run", i)
		}
		if err := os.RemoveAll(disk.Dir); err != nil {
			return err
		}
	}
	if l.corrupt {
		l.ref[0] ^= 1
	}
	for i := range l.engines {
		l.op(i)
		if !l.check(i) {
			return fmt.Errorf("priming unit %d: %v", i, l.lastErr)
		}
	}
	if bad := l.endPass(); bad > 0 && !l.corrupt {
		return fmt.Errorf("priming pass: %d units differ from the expected records", bad)
	}
	return nil
}

// recordHash fingerprints the one shard record of a one-shard run, minus
// its wall-clock field.
func recordHash(res *sweep.RunResult) (uint64, error) {
	line, err := json.Marshal(res.Results[res.Plan[0].Key])
	if err != nil {
		return 0, err
	}
	return fnv64(stripElapsed(line)), nil
}

// op is one timed unit: an in-memory sweep of one shard plus the Table
// III/IV merge.
func (l *sweepLoad) op(i int) {
	e := l.engines[i]
	l.last[i] = nil
	res, err := e.Run(context.Background())
	if err != nil {
		l.lastErr = err
		return
	}
	ds, err := res.Datasets(e.Worlds)
	if err != nil {
		l.lastErr = err
		return
	}
	d := ds[e.Spec.Topologies[0]]
	l.sinkT3, l.sinkT4 = d.Table3(), d.Table4()
	l.last[i], l.lastErr = res, nil
}

func (l *sweepLoad) check(int) bool { return l.lastErr == nil }

// endPass (untimed, outside the allocation window) hashes every unit's
// shard record against the expected one.
func (l *sweepLoad) endPass() (bad int) {
	for i, res := range l.last {
		if res == nil {
			continue // the op failed and check already counted it
		}
		if h, err := recordHash(res); err != nil || h != l.ref[i] {
			bad++
		}
		l.last[i] = nil
	}
	return bad
}

func (l *sweepLoad) close() {
	os.RemoveAll(l.dir)
	l.worlds, l.engines, l.last = nil, nil, nil
}

// stripElapsed cuts the trailing wall-clock field off one results.jsonl
// line: it is the only part of a shard record that differs between runs.
func stripElapsed(line []byte) []byte {
	if i := bytes.LastIndex(line, []byte(`,"elapsed_ns":`)); i >= 0 {
		return line[:i]
	}
	return line
}
