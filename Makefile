GO ?= go

.PHONY: check vet build test race examples bench-smoke bench bench-run sweep-smoke sweep-smoke-generators check-invariants congestion-smoke serve-smoke scale-smoke fuzz-smoke clean

## check: the full pre-merge gate — vet, build, race-enabled tests,
## every example program run to completion, a one-iteration pass over
## every benchmark so bench code can't rot, a
## short run of the repo benchmark's own harness, an interrupt/resume
## sweep that must reproduce the uninterrupted run byte for byte, an
## invariant-checked sweep, a checked smoke sweep per alternative
## failure generator, a live daemon/load-generator round trip, and the
## 100k-node scale pipeline under wall-clock/RSS budgets.
check: vet build race examples bench-smoke bench-run sweep-smoke sweep-smoke-generators check-invariants congestion-smoke serve-smoke scale-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## examples: run every examples/* program; each must exit 0 (they are
## the library's documented entry points, so a broken one is a broken
## API).
examples:
	for d in examples/*/; do \
	  $(GO) run ./$$d > /dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

## bench-smoke: compile-and-run every benchmark once (correctness of
## the bench harness, not timing).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .

## bench: the root go-test benchmarks (one per table/figure, plus the
## runner and single-pair micro-benchmarks) with allocation stats — for
## measuring while you work. The numbers the repo is gated on come
## from bench/ (see bench-run and bench/README.md).
bench:
	$(GO) test -run xxx -bench . -benchtime 50x -benchmem .

## bench-run: one short run of the repo benchmark (BENCHMARK.json,
## bench/run.sh) on every workload — the sharded sweep (whose priming
## pass checks each shard record against a checkpointed run), the
## cache-hit, the cache-miss and the 16k-node scale serving workloads —
## so the gate's own harness cannot rot: each must exit 0 and report
## every answer checked correct. Timings from a 3 s run are not a
## measurement; use the full command in bench/README.md for that.
bench-run:
	for w in sweep_cases serve_hot serve_miss scale_serve; do \
	  out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0) && \
	    echo "$$out" | tail -n 1 | grep -q '"correct":true' || exit 1; \
	done

## sweep-smoke: end-to-end determinism of the sharded sweep. One
## uninterrupted run, then the same workload interrupted after two
## shards (-max-shards exits 2, hence the leading -) and resumed from
## its checkpoint; the two stdouts must be identical. Then every
## experiment's -csv files (the cmd/rtrsim TestGoldenAll workload) at
## -workers 1 and 4 must match file for file. Also proves the -exp flag
## fails fast (exit 1) on an experiment name it doesn't know.
SWEEP_ARGS = -exp table3,fig11 -as AS1239 -cases 40 -block 15 -fig11-areas 20 -seed 1
CSV_ARGS = -exp all -as AS1239,AS4323 -cases 30 -fig11-areas 5 -loss-scenarios 3 -util-pairs 100 -util-scenarios 2 -seed 1
sweep-smoke:
	rm -rf .sweep-smoke && mkdir -p .sweep-smoke
	$(GO) run ./cmd/rtrsim $(SWEEP_ARGS) -workers 2 > .sweep-smoke/full.txt
	-$(GO) run ./cmd/rtrsim $(SWEEP_ARGS) -workers 1 -state .sweep-smoke/st -max-shards 2 > .sweep-smoke/interrupted.txt 2>/dev/null
	$(GO) run ./cmd/rtrsim $(SWEEP_ARGS) -workers 4 -state .sweep-smoke/st -resume > .sweep-smoke/resumed.txt
	cmp .sweep-smoke/full.txt .sweep-smoke/resumed.txt
	$(GO) run ./cmd/rtrsim $(CSV_ARGS) -workers 1 -csv .sweep-smoke/csv1 > /dev/null
	$(GO) run ./cmd/rtrsim $(CSV_ARGS) -workers 4 -csv .sweep-smoke/csv4 > /dev/null
	diff -r .sweep-smoke/csv1 .sweep-smoke/csv4
	rm -rf .sweep-smoke
	! $(GO) run ./cmd/rtrsim -exp nosuch > /dev/null 2>&1

## sweep-smoke-generators: a small invariant-checked sweep for each
## alternative failure-generator family (multi-disk, conduit cut,
## correlated SRLG) — the pluggable models must run the full sharded
## pipeline end to end under the oracle, with the checking profile
## derived from the generator.
GEN_SWEEP_ARGS = -exp table3 -as AS1239 -cases 30 -block 15 -seed 2 -check
sweep-smoke-generators:
	$(GO) run ./cmd/rtrsim $(GEN_SWEEP_ARGS) -failure disks:k=2,disjoint > /dev/null
	$(GO) run ./cmd/rtrsim $(GEN_SWEEP_ARGS) -failure cut:w=150 > /dev/null
	$(GO) run ./cmd/rtrsim $(GEN_SWEEP_ARGS) -failure srlg:g=9,n=2 > /dev/null

## check-invariants: the sweep-smoke workload with the invariant
## oracle attached (-check) under the race detector — every generated
## case must satisfy every paper-level invariant, and the loss model's
## packet accounting must conserve. Fails fast with a repro string.
CHECK_ARGS = -exp table3,loss -as AS1239 -cases 40 -block 15 -loss-scenarios 5 -seed 1
check-invariants:
	$(GO) run -race ./cmd/rtrsim $(CHECK_ARGS) -check > /dev/null

## congestion-smoke: a checked congestion sweep shard — gravity-model
## traffic at heavy offered load replayed through the recovery-scheme
## registry (rtr vs the load-spreading rtr-spread), with the
## utilization oracle (-check) validating flow conservation, column
## ordering, and the calibrated operating point. Also proves the
## -scheme flag fails fast (exit 1) on a name the registry doesn't
## know.
CONG_ARGS = -exp congestion -as AS1239 -util-pairs 200 -util-scenarios 3 -seed 1
congestion-smoke:
	$(GO) run ./cmd/rtrsim $(CONG_ARGS) -check > /dev/null
	! $(GO) run ./cmd/rtrsim -exp congestion -as AS1239 -scheme nosuch > /dev/null 2>&1

## serve-smoke: end-to-end daemon round trip. Starts rtrsimd on a
## loopback port with the invariant oracle attached, fires a short
## rtrload burst (must see nonzero qps and zero request errors), then
## interrupts the daemon and requires the sweep-style exit status 2
## after a clean drain.
SERVE_ADDR ?= 127.0.0.1:18423
serve-smoke:
	rm -rf .serve-smoke && mkdir -p .serve-smoke
	$(GO) build -o .serve-smoke/rtrsimd ./cmd/rtrsimd
	$(GO) build -o .serve-smoke/rtrload ./cmd/rtrload
	.serve-smoke/rtrsimd -addr $(SERVE_ADDR) -as AS1239 -check & pid=$$!; \
	  .serve-smoke/rtrload -addr $(SERVE_ADDR) -as AS1239 -duration 2s -conns 2 -wait 30s -min-qps 1 \
	    || { kill $$pid 2>/dev/null; exit 1; }; \
	  kill -INT $$pid; wait $$pid; test $$? -eq 2
	rm -rf .serve-smoke

## scale-smoke: the 100k-node pipeline end to end — hierarchical
## synthesis, binary snapshot write plus streamed re-read, scale-mode
## world build (MRC disabled), one invariant-checked sweep shard with
## destination sampling, a converged-batch recompute, and warm
## single-pair serving. Gated on total wall clock
## and peak RSS (VmHWM) so large-graph time/memory regressions fail
## the pre-merge gate instead of landing silently. Four runs on a
## 2-vCPU Xeon took 15-19s and peaked at 390-510 MiB, so the wall
## budget carries 6-8x headroom and the RSS budget ~3x.
SCALE_NODES ?= 100000
SCALE_BUDGET ?= 2m
SCALE_RSS_MB ?= 1536
scale-smoke:
	$(GO) run ./cmd/rtrscale -nodes $(SCALE_NODES) -budget $(SCALE_BUDGET) -max-rss-mb $(SCALE_RSS_MB)

## fuzz-smoke: a short native-fuzzing pass over the wire decoder, the
## topology parser, the failure-generator spec parser, the
## failure-instance grammar, and the capsule geometry predicates (CI
## runs this; use go test -fuzz directly for long sessions).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeHeader -fuzztime $(FUZZTIME) ./internal/routing
	$(GO) test -run xxx -fuzz 'FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/topology
	$(GO) test -run xxx -fuzz FuzzReadBinary -fuzztime $(FUZZTIME) ./internal/topology
	$(GO) test -run xxx -fuzz FuzzGeneratorSpec -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run xxx -fuzz FuzzParseInstance -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run xxx -fuzz FuzzCapsuleIntersect -fuzztime $(FUZZTIME) ./internal/geom

clean:
	rm -f repro.test
	rm -rf .sweep-smoke .serve-smoke .bench_build
