package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one recorded interval: a call from this program into a layer's
// public function, or a group of them.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index of the span that caused it, -1 for a root
	Op      int32  `json:"op"`     // unit or probe item the span belongs to, -1 for a group
	SelfNs  int64  `json:"self_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
}

// maxSpans bounds the in-memory trace; begin never grows the slice, so a
// traced pass allocates no more than an untraced one.
const maxSpans = 1 << 19

func newTracer() *tracer {
	return &tracer{t0: now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its index (-1 when the trace is full).
func (t *tracer) begin(name string, parent, op int) int {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: since(t.t0), Parent: int32(parent), Op: int32(op)})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) int64 {
	e := since(t.t0)
	if id < 0 {
		return 0
	}
	t.spans[id].EndNs = e
	return e - t.spans[id].StartNs
}

// fillSelf computes every span's self time: its duration minus the part
// its child spans cover (children of one parent never overlap here).
func (t *tracer) fillSelf() {
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.fillSelf()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.dropped, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracePasses is the least number of passes (and probe repeats) every
// floor of a traced run rests on.
const tracePasses = 10

// runTraced is the -trace 1 run: the named workload's plan measured
// untraced and then with a span around every op (their difference is the
// tracing overhead), followed by the layer ledger. End-to-end numbers
// never come from here.
func runTraced(cfg runConfig, w workload, res *runResult) error {
	tr := newTracer()
	cal0 := calibrate()

	root := tr.begin("setup", -1, -1)
	if err := w.setup(1); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	tr.end(root)
	res.PlanHash = w.planHash()
	root = tr.begin("prime", -1, -1)
	if err := w.prime(); err != nil {
		return fmt.Errorf("priming pass: %w", err)
	}
	tr.end(root)

	runtime.GC()
	phase := cfg.seconds / 4
	root = tr.begin("untraced_passes", -1, -1)
	mu := measure(w, phase, tracePasses, w.op)
	tr.end(root)
	root = tr.begin("traced_passes", -1, -1)
	mt := measure(w, 0, tracePasses, func(i int) {
		id := tr.begin("op", root, i)
		w.op(i)
		tr.end(id)
	})
	tr.end(root)

	fl := mu.fl
	units, per := w.units(), w.opsPerUnit()
	ops := float64(fl.passes * units * per)
	opsPerPass := float64(units * per)
	res.Units, res.Passes = units, fl.passes
	res.Attempted = int(ops) + mt.fl.passes*units*per
	res.Failed = (mu.failed + mt.failed) * per
	res.Correct = res.Failed == 0

	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set("go.gc_cpu_share", mu.gcCPUS/mu.cpuS)
	set("go.gc_cycles_per_kop", 1000*float64(mu.gcCycles)/ops)
	set("go.heap_peak_mb", mu.heapSysMB)
	set("proc.cpu_us_per_op", 1e6*mu.cpuS/ops)
	set("raw.ops_per_s", opsPerPass/(fl.rawMean()/1e9))
	set("host.disturbance", fl.rawMean()/float64(fl.sum())-1)
	set("floor.settled_share", fl.settledShare())
	set("trace.overhead_share", float64(mt.fl.sum())/float64(fl.sum())-1)

	// The workload is done; free it before the ledger builds its own worlds.
	w.close()
	runtime.GC()
	if err := runLedger(cfg, tr, set); err != nil {
		return fmt.Errorf("layer ledger: %w", err)
	}
	set("host.cal_ms", (cal0+calibrate())/2)

	for _, s := range perLayer {
		if _, ok := res.Metrics[s.Name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", s.Name)
		}
	}
	return tr.write(filepath.Join(cfg.workdir, "trace-"+cfg.workload+".json"), cfg.workload, cfg.seed)
}
