// Command bench is the repository's benchmark: four fixed-plan workloads
// driven through the public functions of the layers in one process, every
// timing a sum or quantile of per-unit floors. See README.md.
//
//	go run ./bench -all                       every workload, every metric
//	go run ./bench -workload serve_hot        one run, result JSON on the last line
//	go run ./bench -workload serve_hot -trace 1   the layer ledger and a span file
//	go run ./bench -selfcheck 3               two sets of runs must agree within bounds
//	go run ./bench -list                      the declaration BENCHMARK.json holds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var cfg runConfig
	var (
		all       = flag.Bool("all", false, "run every workload, each in its own process, and print every metric")
		list      = flag.Bool("list", false, "print the benchmark declaration (BENCHMARK.json) and exit")
		selfcheck = flag.Int("selfcheck", 0, "run two back-to-back sets of N (>= 3) full runs and compare their medians against the bounds")
		trace     = flag.Int("trace", 0, "1: traced run — print the per-layer ledger and write <workdir>/trace-<workload>.json")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op plan: same seed, same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.StringVar(&cfg.workdir, "workdir", "bench/out", "the only directory the program writes under")
	flag.StringVar(&cfg.out, "out", "", "also write the full result (host block, plan hash, passes) to this JSON file")
	flag.BoolVar(&cfg.corruptExpected, "corrupt-expected", false, "flip one expected answer; the run must then fail")
	flag.Parse()
	cfg.trace = *trace != 0

	// One load goroutine; the extra procs only serve the runtime (GC) and
	// the layers' own worker pools in the scaling rows.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	var err error
	switch {
	case *list:
		err = writeList(os.Stdout)
	case *selfcheck > 0:
		err = runSelfcheck(cfg, *selfcheck)
	case *all:
		err = runAll(cfg)
	default:
		err = runSingle(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSingle runs one workload in this process and prints the contract's
// result object as the last line of standard output.
func runSingle(cfg runConfig) error {
	res, err := runOne(cfg)
	if err != nil {
		return err
	}
	printHuman(res)
	if cfg.out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or answered wrongly", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// printHuman prints every metric of a run by name with unit, direction
// and bound.
func printHuman(res *runResult) {
	fmt.Printf("workload %s seed %d plan %s: %d units/pass x %d passes, correct %v, attempted %d, failed %d\n",
		res.Workload, res.Seed, res.PlanHash, res.Units, res.Passes, res.Correct, res.Attempted, res.Failed)
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok {
			continue
		}
		switch {
		case res.Trace:
			fmt.Printf("  %-30s %14.4f %-6s %-6s moves %s\n", s.Name, v.Value, v.Unit, s.Better, s.Moves)
		case s.Name == mTail:
			fmt.Printf("  %-16s %14.4f %-6s %-6s bound %.2f  (p%g, %d units beyond)\n",
				s.Name, v.Value, v.Unit, s.Better, s.Bound, 100*res.TailQ, res.TailOver)
		default:
			fmt.Printf("  %-16s %14.4f %-6s %-6s bound %.2f\n", s.Name, v.Value, v.Unit, s.Better, s.Bound)
		}
	}
	if !res.Trace {
		fmt.Printf("  beside the floors: raw.ops_per_s %.1f, host.disturbance %.3f, host.cal_ms %.3f -> %.3f\n",
			res.RawOpsPerS, res.Disturbance, res.CalMs[0], res.CalMs[1])
		fmt.Printf("  wall: plan+set-up x%d %.1f s, expected answers+priming %.1f s, measured %.1f s, set-up x%d again %.1f s\n",
			res.SetupK, res.PhaseS[0], res.PhaseS[1], res.PhaseS[2], res.SetupK, res.PhaseS[3])
	}
}
