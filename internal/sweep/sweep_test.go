package sweep

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// The AS1239 world (Table II's smallest: 52 nodes, 84 links) is built
// once and shared; worlds are read-only during runs.
var (
	worldOnce sync.Once
	testWorld *sim.World
	worldErr  error
)

func as1239(t *testing.T) map[string]*sim.World {
	t.Helper()
	worldOnce.Do(func() {
		testWorld, worldErr = sim.NewWorld("AS1239", 7)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return map[string]*sim.World{"AS1239": testWorld}
}

// testSpec is small enough for unit tests but exercises every shard
// shape: uneven final case blocks and multi-block Fig. 11 radii.
func testSpec() Spec {
	return Spec{
		BaseSeed:      7,
		Topologies:    []string{"AS1239"},
		Recoverable:   20,
		Irrecoverable: 10,
		BlockCases:    8,
		Fig11Radii:    []float64{100, 200},
		Fig11Areas:    30,
		BlockAreas:    20,
	}
}

// merged reduces a run to the bytes that define every downstream
// output: the concatenated case records and the Fig. 11 curves.
func merged(t *testing.T, res *RunResult, worlds map[string]*sim.World) string {
	t.Helper()
	ds, err := res.Datasets(worlds)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := res.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	type flat struct {
		Rec, Irr []sim.CaseRecord
	}
	doc := struct {
		Data  map[string]flat
		Fig11 map[string][]sim.Fig11Point
	}{Data: map[string]flat{}, Fig11: f11}
	for as, d := range ds {
		doc.Data[as] = flat{Rec: d.Rec, Irr: d.Irr}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestShardPlan(t *testing.T) {
	spec := testSpec()
	plan := spec.Shards()
	// Cases: 20 rec / 10 irr in blocks of 8 -> blocks (8,8), (8,2),
	// (4,0). Fig11: 30 areas in blocks of 20 -> 2 blocks per radius.
	wantKeys := []string{
		"cases/AS1239/0000", "cases/AS1239/0001", "cases/AS1239/0002",
		"fig11/AS1239/r100/0000", "fig11/AS1239/r100/0001",
		"fig11/AS1239/r200/0000", "fig11/AS1239/r200/0001",
	}
	if len(plan) != len(wantKeys) {
		t.Fatalf("plan has %d shards, want %d", len(plan), len(wantKeys))
	}
	var rec, irr, areas int
	seeds := map[int64]string{}
	for i, sh := range plan {
		if sh.Key != wantKeys[i] {
			t.Errorf("shard %d key = %q, want %q", i, sh.Key, wantKeys[i])
		}
		rec, irr, areas = rec+sh.Rec, irr+sh.Irr, areas+sh.Areas
		s := sh.Seed(spec.BaseSeed)
		if prev, dup := seeds[s]; dup {
			t.Errorf("shards %s and %s share seed %d", prev, sh.Key, s)
		}
		seeds[s] = sh.Key
	}
	if rec != 20 || irr != 10 || areas != 60 {
		t.Errorf("plan totals rec=%d irr=%d areas=%d, want 20/10/60", rec, irr, areas)
	}
}

func TestShardSeedIndependentOfBlockSizing(t *testing.T) {
	// The seed depends only on shard identity, not on how the spec
	// sliced the workload — resizing blocks must not perturb the seed
	// of a shard that keeps its key.
	a := Shard{Kind: KindCases, Topology: "AS7018", Block: 3, Rec: 500, Irr: 500}
	b := Shard{Kind: KindCases, Topology: "AS7018", Block: 3, Rec: 8, Irr: 2}
	if a.Seed(42) != b.Seed(42) {
		t.Error("shard seed must not depend on block sizing")
	}
	if a.Seed(42) == a.Seed(43) {
		t.Error("shard seed must depend on the base seed")
	}
}

// TestRunDeterministicAcrossWorkers is the tentpole property: the
// merged output is bit-identical for any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	worlds := as1239(t)
	var want string
	for _, workers := range []int{1, 4, 16} {
		e := &Engine{Spec: testSpec(), Worlds: worlds, Workers: workers}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete() || res.Interrupted {
			t.Fatalf("workers=%d: run incomplete (%d/%d)", workers, len(res.Results), len(res.Plan))
		}
		got := merged(t, res, worlds)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d produced different merged output", workers)
		}
	}
}

// TestSampledSweepDeterministicAcrossWorkers: the scale-mode
// destination-sampled enumeration draws from the shard RNG, so its
// merged output must also be bit-identical for any worker count.
func TestSampledSweepDeterministicAcrossWorkers(t *testing.T) {
	worlds := as1239(t)
	spec := testSpec()
	spec.Fig11Radii = nil
	spec.DstSample = 12
	var want string
	for _, workers := range []int{1, 4} {
		e := &Engine{Spec: spec, Worlds: worlds, Workers: workers}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete() {
			t.Fatalf("workers=%d: run incomplete", workers)
		}
		got := merged(t, res, worlds)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: sampled sweep produced different merged output", workers)
		}
	}
}

// TestInterruptResumeMatchesUninterrupted: a run stopped after 3
// shards and resumed with a different worker count merges to exactly
// the bytes of an uninterrupted run.
func TestInterruptResumeMatchesUninterrupted(t *testing.T) {
	worlds := as1239(t)
	spec := testSpec()

	full, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := merged(t, full, worlds)

	dir := t.TempDir()
	first, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 1, Dir: dir, MaxShards: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted || first.Executed != 2 || first.Complete() {
		t.Fatalf("interrupted run: executed=%d interrupted=%v complete=%v",
			first.Executed, first.Interrupted, first.Complete())
	}
	if _, err := first.Datasets(worlds); err == nil {
		t.Fatal("merging an incomplete run must fail")
	}

	second, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 4, Dir: dir, Resume: true}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.Loaded != 2 || second.Executed != len(second.Plan)-2 || !second.Complete() {
		t.Fatalf("resumed run: loaded=%d executed=%d complete=%v",
			second.Loaded, second.Executed, second.Complete())
	}
	if got := merged(t, second, worlds); got != want {
		t.Fatal("interrupt+resume produced different merged output than an uninterrupted run")
	}

	// Resuming a finished sweep recomputes nothing.
	third, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 4, Dir: dir, Resume: true}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.Executed != 0 || third.Loaded != len(third.Plan) {
		t.Fatalf("resume of complete sweep: loaded=%d executed=%d", third.Loaded, third.Executed)
	}
	if got := merged(t, third, worlds); got != want {
		t.Fatal("checkpoint-only merge differs from fresh merge")
	}
}

// TestTornTailTolerated: a results file whose final line was cut mid
// write (kill -9) loses exactly that shard; resume reruns it and the
// merge is unchanged.
func TestTornTailTolerated(t *testing.T) {
	worlds := as1239(t)
	spec := testSpec()
	dir := t.TempDir()

	full, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 2, Dir: dir}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := merged(t, full, worlds)

	path := filepath.Join(dir, "results.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 2, Dir: dir, Resume: true}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded != len(res.Plan)-1 || res.Executed != 1 {
		t.Fatalf("after torn tail: loaded=%d executed=%d, want %d/1", res.Loaded, res.Executed, len(res.Plan)-1)
	}
	if got := merged(t, res, worlds); got != want {
		t.Fatal("torn-tail resume produced different merged output")
	}
}

// TestResumeIgnoresCorruptManifestCount: the manifest's completed
// count is advisory — resume recounts the cleanly parsed results.jsonl
// lines, so a corrupted (or crash-stale) count neither skips shards
// nor reruns recorded ones, and the merge stays bit-identical. The
// rewritten manifest carries the repaired count.
func TestResumeIgnoresCorruptManifestCount(t *testing.T) {
	worlds := as1239(t)
	spec := testSpec()

	full, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := merged(t, full, worlds)

	for _, bogus := range []int{0, 9999} {
		dir := t.TempDir()
		first, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 1, Dir: dir, MaxShards: 3}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if first.Executed != 3 {
			t.Fatalf("interrupted run executed %d shards, want 3", first.Executed)
		}

		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Completed = bogus
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}

		res, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 4, Dir: dir, Resume: true}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Loaded != 3 || res.Executed != len(res.Plan)-3 || !res.Complete() {
			t.Fatalf("completed=%d: resume loaded=%d executed=%d complete=%v",
				bogus, res.Loaded, res.Executed, res.Complete())
		}
		if got := merged(t, res, worlds); got != want {
			t.Fatalf("completed=%d: resume after manifest corruption changed the merged output", bogus)
		}
		if m, err = readManifest(dir); err != nil {
			t.Fatal(err)
		}
		if m.Completed != len(res.Plan) {
			t.Fatalf("completed=%d: manifest not repaired, holds %d want %d", bogus, m.Completed, len(res.Plan))
		}
	}
}

// TestResumeRefusesForeignCheckpoint: a checkpoint written for a
// different workload must be rejected, not silently merged.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	worlds := as1239(t)
	dir := t.TempDir()
	spec := testSpec()
	spec.Fig11Radii = nil // keep the guard-rail fixture cheap
	if _, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 2, Dir: dir, MaxShards: 1}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Recoverable++
	_, err := (&Engine{Spec: other, Worlds: worlds, Workers: 2, Dir: dir, Resume: true}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "different workload") {
		t.Fatalf("resume against foreign checkpoint: err = %v", err)
	}
}

// TestFreshRunTruncatesStaleState: without -resume, a reused state
// dir must not leak old shards into the new run.
func TestFreshRunTruncatesStaleState(t *testing.T) {
	worlds := as1239(t)
	dir := t.TempDir()
	spec := testSpec()
	spec.Fig11Radii = nil
	if _, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 1, Dir: dir}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 1, Dir: dir}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded != 0 || res.Executed != len(res.Plan) {
		t.Fatalf("fresh run over stale dir: loaded=%d executed=%d", res.Loaded, res.Executed)
	}
	loaded, err := loadResults(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(res.Plan) {
		t.Fatalf("results file holds %d shards, want %d", len(loaded), len(res.Plan))
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testSpec()
	mutations := map[string]func(*Spec){
		"seed":       func(s *Spec) { s.BaseSeed++ },
		"topologies": func(s *Spec) { s.Topologies = append(s.Topologies, "AS3967") },
		"rec":        func(s *Spec) { s.Recoverable++ },
		"block":      func(s *Spec) { s.BlockCases++ },
		"radii":      func(s *Spec) { s.Fig11Radii = []float64{100} },
		"areas":      func(s *Spec) { s.Fig11Areas++ },
		"dst_sample": func(s *Spec) { s.DstSample = 25 },
	}
	fp := Fingerprint(base)
	if fp != Fingerprint(testSpec()) {
		t.Fatal("fingerprint not stable across identical specs")
	}
	for name, mutate := range mutations {
		s := testSpec()
		mutate(&s)
		if Fingerprint(s) == fp {
			t.Errorf("mutation %q does not change the fingerprint", name)
		}
	}
}

func TestManifestTracksCompletion(t *testing.T) {
	worlds := as1239(t)
	dir := t.TempDir()
	spec := testSpec()
	if _, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 2, Dir: dir}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Shards())
	if m.Version != CheckpointVersion || m.Completed != want || m.TotalShards != want {
		t.Fatalf("manifest = %+v, want version %d, %d/%d shards", m, CheckpointVersion, want, want)
	}
	if m.Fingerprint != Fingerprint(spec) {
		t.Error("manifest fingerprint mismatch")
	}
}

// TestCheckedSweepMatchesUnchecked: Spec.Check validates, it must not
// perturb results — the checked run's merged output is bit-identical
// to the unchecked run's, and Check stays out of the checkpoint
// fingerprint so checked and unchecked runs share checkpoints.
func TestCheckedSweepMatchesUnchecked(t *testing.T) {
	worlds := as1239(t)
	spec := testSpec()
	plain, err := (&Engine{Spec: spec, Worlds: worlds, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := merged(t, plain, worlds)

	checked := spec
	checked.Check = true
	res, err := (&Engine{Spec: checked, Worlds: worlds, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatalf("checked sweep failed an invariant: %v", err)
	}
	if got := merged(t, res, worlds); got != want {
		t.Error("Check changed the sweep output")
	}
	if Fingerprint(checked) != Fingerprint(spec) {
		t.Error("Check leaked into the checkpoint fingerprint")
	}
}

// Complete reports whether every planned shard has a result.
func (r *RunResult) Complete() bool { return len(r.Results) == len(r.Plan) }
