package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runChild runs one workload in a process of its own (fresh heap, fresh
// VmHWM) and returns its full result. The child's report goes to our
// standard output when echo is set.
func runChild(cfg runConfig, wl string, seed int64, echo bool) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	out := filepath.Join(cfg.workdir, fmt.Sprintf("result-%s-%d.json", wl, seed))
	args := []string{
		"-workload", wl, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-workdir", cfg.workdir, "-out", out,
	}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if cfg.corruptExpected {
		args = append(args, "-corrupt-expected")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if echo {
		cmd.Stdout = os.Stdout
	}
	runErr := cmd.Run()
	data, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", wl, runErr)
		}
		return nil, err
	}
	os.Remove(out)
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s: %w", wl, runErr)
	}
	return &res, nil
}

// runAll is the one command that prints every metric of every workload
// and checks the answers: each workload in its own process, in turn.
func runAll(cfg runConfig) error {
	bad := 0
	for _, wl := range workloads {
		res, err := runChild(cfg, wl.Name, cfg.seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			bad++
			continue
		}
		if !res.Correct || res.Failed > 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads failed", bad, len(workloads))
	}
	fmt.Printf("all %d workloads: correct true, 0 failed ops\n", len(workloads))
	return nil
}

// runSelfcheck runs two back-to-back sets of n full runs of every
// workload (the same seeds in both sets) and requires the per-set medians
// of every end-to-end metric to agree within the metric's bound.
func runSelfcheck(cfg runConfig, n int) error {
	if n < 3 {
		return fmt.Errorf("-selfcheck needs N >= 3, got %d", n)
	}
	cfg.trace = false
	type cell struct{ vals [2][]float64 }
	cells := map[string]*cell{}
	disturb := map[string][]float64{}
	key := func(wl, m string) string { return wl + " " + m }
	for set := 0; set < 2; set++ {
		for _, wl := range workloads {
			for i := 0; i < n; i++ {
				res, err := runChild(cfg, wl.Name, cfg.seed+int64(i), false)
				if err != nil {
					return err
				}
				for _, m := range endToEnd {
					c := cells[key(wl.Name, m.Name)]
					if c == nil {
						c = &cell{}
						cells[key(wl.Name, m.Name)] = c
					}
					c.vals[set] = append(c.vals[set], res.Metrics[m.Name].Value)
				}
				disturb[wl.Name] = append(disturb[wl.Name], res.Disturbance)
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d done\n", set+1, wl.Name, cfg.seed+int64(i))
			}
		}
	}
	fmt.Printf("selfcheck: 2 sets x %d runs per workload, seeds %d..%d, %g s measured per run\n",
		n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
	fmt.Printf("%-12s %-16s %14s %14s %8s %6s %12s  %s\n",
		"workload", "metric", "median set 1", "median set 2", "ratio", "bound", "disturbance", "verdict")
	misses := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			c := cells[key(wl.Name, m.Name)]
			a, b := median(c.vals[0]), median(c.vals[1])
			ratio := b / a
			verdict := "ok"
			if ratio > 1+m.Bound || ratio < 1-m.Bound {
				verdict = "MISS"
				misses++
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %8.4f %6.2f %12.3f  %s\n",
				wl.Name, m.Name, a, b, ratio, m.Bound, median(disturb[wl.Name]), verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs disagree beyond their bound", misses)
	}
	fmt.Println("selfcheck: every workload x metric pair agrees within its bound")
	return nil
}
