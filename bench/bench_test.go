package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
)

// tinyServe is a serve workload cut down to two topologies so the tests
// stay inside tier-1's budget.
func tinyServe(t *testing.T, name string, seed int64, corrupt bool) *serveLoad {
	t.Helper()
	l := newServeLoad(name, runConfig{seed: seed, workdir: t.TempDir(), corruptExpected: corrupt})
	l.names, l.failures, l.queries = l.names[:2], 4, 4
	if err := l.setup(1); err != nil {
		t.Fatal(err)
	}
	return l
}

func tinySweep(seed int64, dir string) *sweepLoad {
	l := newSweepLoad(runConfig{seed: seed, workdir: dir})
	l.names, l.rows = l.names[:2], 2
	return l
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{wlServeHot, wlServeMiss} {
		a, b, c := tinyServe(t, name, 7, false), tinyServe(t, name, 7, false), tinyServe(t, name, 8, false)
		if a.planHash() != b.planHash() {
			t.Errorf("%s: same seed gave plans %s and %s", name, a.planHash(), b.planHash())
		}
		if a.planHash() == c.planHash() {
			t.Errorf("%s: seeds 7 and 8 gave the same plan %s", name, a.planHash())
		}
	}
	a, b, c := tinySweep(7, t.TempDir()), tinySweep(7, t.TempDir()), tinySweep(8, t.TempDir())
	for _, l := range []*sweepLoad{a, b, c} {
		l.plan(nil)
	}
	if a.planHash() != b.planHash() || a.planHash() == c.planHash() {
		t.Errorf("sweep_cases plan hashes: seed 7 %s / %s, seed 8 %s", a.planHash(), b.planHash(), c.planHash())
	}
}

// A tiny run of each workload family answers correctly, and a flipped
// expected answer is noticed.
func TestAnswersAreChecked(t *testing.T) {
	for _, name := range []string{wlServeHot, wlServeMiss} {
		l := tinyServe(t, name, 3, false)
		if err := l.prime(); err != nil {
			t.Fatal(err)
		}
		m := measure(l, 0, 2, l.op)
		if m.failed != 0 || m.fl.passes != 2 {
			t.Errorf("%s: %d failed units in %d passes", name, m.failed, m.fl.passes)
		}
		bad := tinyServe(t, name, 3, true)
		if err := bad.prime(); err != nil {
			t.Fatal(err)
		}
		if m := measure(bad, 0, 1, bad.op); m.failed != 1 {
			t.Errorf("%s with a corrupted expectation: %d failed units, want 1", name, m.failed)
		}
	}

	dir := t.TempDir()
	for _, corrupt := range []bool{false, true} {
		l := tinySweep(3, dir)
		l.corrupt = corrupt
		if err := l.setup(1); err != nil {
			t.Fatal(err)
		}
		if err := l.prime(); err != nil {
			t.Fatal(err)
		}
		want := 0
		if corrupt {
			want = 1
		}
		if m := measure(l, 0, 1, l.op); m.failed != want {
			t.Errorf("sweep_cases corrupt=%v: %d failed units, want %d", corrupt, m.failed, want)
		}
		if _, err := os.Stat(l.dir); !os.IsNotExist(err) {
			t.Errorf("checkpoint directories left behind in %s", l.dir)
		}
	}
}

// synthetic fills a floors value from base unit times, one pass at a time.
func synthetic(base []float64, passes int, sample func(pass, unit int, base float64) float64) *floors {
	f := newFloors(len(base), passes)
	for p := 0; p < passes; p++ {
		for i, b := range base {
			f.observe(i, int64(sample(p, i, b)))
		}
		f.endPass()
	}
	return f
}

func TestFloorsIgnoreDisturbanceAndFollowShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, 512)
	for i := range base {
		base[i] = 10_000 * math.Exp(2*rng.Float64()) // 10 us .. 74 us
	}
	const passes = 30
	clean := synthetic(base, passes, func(_, _ int, b float64) float64 { return b })
	noisy := synthetic(base, passes, func(_, _ int, b float64) float64 {
		if rng.Float64() < 0.6 {
			return b * (1.3 + 0.7*rng.Float64())
		}
		return b
	})
	shifted := synthetic(base, passes, func(_, _ int, b float64) float64 { return 1.1 * b })

	c, n, s := clean.summary(1, 0.99, 1), noisy.summary(1, 0.99, 1), shifted.summary(1, 0.99, 1)
	rel := func(a, b float64) float64 { return math.Abs(a/b - 1) }
	if rel(n.opsPerS, c.opsPerS) > 0.02 || rel(n.p50Ms, c.p50Ms) > 0.02 || rel(n.tailMs, c.tailMs) > 0.02 {
		t.Errorf("60%% of samples inflated by 30-100%% moved the floors: clean %+v, noisy %+v", c, n)
	}
	if noisy.rawMean()/float64(noisy.sum())-1 < 0.3 {
		t.Errorf("host.disturbance %.3f does not show the inflation", noisy.rawMean()/float64(noisy.sum())-1)
	}
	if rel(c.opsPerS/s.opsPerS, 1.1) > 0.001 || rel(s.p50Ms/c.p50Ms, 1.1) > 0.001 || rel(s.tailMs/c.tailMs, 1.1) > 0.001 {
		t.Errorf("a uniform +10%% shift must move every timing 10%%: clean %+v, shifted %+v", c, s)
	}
	if got := clean.settledShare(); got != 1 {
		t.Errorf("settled share of constant samples = %v, want 1", got)
	}
}

func TestLatencyUnitsSumGroups(t *testing.T) {
	f := synthetic([]float64{1, 2, 3, 4, 50, 60, 7, 8}, 2, func(_, _ int, b float64) float64 { return b })
	got := f.latencies(2)
	want := []int64{3, 7, 15, 110}
	if len(got) != len(want) {
		t.Fatalf("latencies(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latencies(2) = %v, want %v", got, want)
		}
	}
	if s := f.summary(1, 0.75, 2); s.p50Ms != 7e-6 || s.tailMs != 15e-6 || s.tailBeyond != 1 {
		t.Errorf("summary over row latencies = %+v", s)
	}
}

func TestTailQuantilesHaveTenUnitsBeyond(t *testing.T) {
	const topos = 8
	plans := []struct {
		name     string
		latUnits int
		q        float64
	}{
		{wlSweepCases, sweepRows, (&sweepLoad{}).tailQ()},
		{wlServeHot, topos * hotFailuresPerTopo * hotPairsPerFailure, newServeLoad(wlServeHot, runConfig{}).tailQ()},
		{wlServeMiss, topos * missFailuresPerTopo * missQueriesPerVisit, newServeLoad(wlServeMiss, runConfig{}).tailQ()},
		{wlScaleServe, scaleFailures * scalePairsPerFailure, newServeLoad(wlScaleServe, runConfig{}).tailQ()},
	}
	if len(plans) != len(workloads) {
		t.Fatalf("%d plans for %d workloads", len(plans), len(workloads))
	}
	for _, p := range plans {
		if beyond := p.latUnits - 1 - quantileRank(p.latUnits, p.q); beyond < 10 {
			t.Errorf("%s: p%g of %d latency units has %d beyond it, want >= 10", p.name, 100*p.q, p.latUnits, beyond)
		}
	}
}

// A stratified plan uses every grid cell and every radius band once, and
// every disk is one the paper's model could have drawn.
func TestStrataCoverCellsAndBands(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, rmin, rmax = 16, 100.0, 300.0
	st := newStrata(rng, n, rmin, rmax)
	cells, bands := map[int]bool{}, map[int]bool{}
	for k := 0; k < n; k++ {
		d := st.disk(rng, k, false)
		if d.Radius < rmin || d.Radius > rmax || d.Center.X < 0 || d.Center.X > 2000 || d.Center.Y < 0 || d.Center.Y > 2000 {
			t.Errorf("disk %d = %+v is outside the paper's model", k, d)
		}
		cells[int(d.Center.X/500)+4*int(d.Center.Y/500)] = true
		bands[int((d.Radius-rmin)/(rmax-rmin)*n)] = true
	}
	if len(cells) != n || len(bands) != n {
		t.Errorf("%d disks fell into %d cells and %d radius bands", n, len(cells), len(bands))
	}
	if got, want := radiusBand(0, 1), ""; got != "disk"+want {
		t.Errorf("one band must be the paper's model, got %q", got)
	}
	if got := radiusBand(1, 4); got != "disk:rmin=150,rmax=200" {
		t.Errorf("radiusBand(1, 4) = %q", got)
	}
}

func TestNamesAndDeclaration(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	maxBound := 0.0
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if endToEnd[0].Name != mSetup || endToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first and carry the largest bound")
	}
	for _, m := range perLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Moves == "" {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}

	var got bytes.Buffer
	if err := writeList(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-list differs from BENCHMARK.json; regenerate it with `go run ./bench -list > BENCHMARK.json`")
	}
}

func TestHelpers(t *testing.T) {
	line := []byte(`{"key":"cases/AS209/0000","rec":[{"recoverable":true}],"elapsed_ns":12345}`)
	if got := string(stripElapsed(line)); got != `{"key":"cases/AS209/0000","rec":[{"recoverable":true}]` {
		t.Errorf("stripElapsed = %s", got)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{128, 0.90, 115}, {4096, 0.90, 3686}, {64, 0.80, 51}, {10, 0.5, 4}, {1, 0.99, 0}} {
		if got := quantileRank(c.n, c.q); got != c.want {
			t.Errorf("quantileRank(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	tr := newTracer()
	root := tr.begin("root", -1, -1)
	child := tr.begin("child", root, 0)
	tr.end(child)
	tr.end(root)
	tr.fillSelf()
	r, c := tr.spans[root], tr.spans[child]
	if r.SelfNs != (r.EndNs-r.StartNs)-(c.EndNs-c.StartNs) || c.SelfNs != c.EndNs-c.StartNs {
		t.Errorf("self times: root %+v child %+v", r, c)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}
