package main

import (
	"bytes"
	"errors"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenCongestion pins the congestion experiment's stdout: the
// utilization table is a pure function of (topology, seed, pairs,
// scenarios, schemes), like every other experiment.
func TestGoldenCongestion(t *testing.T) {
	out, code := runCLI(t, "-exp", "congestion", "-as", "AS1239", "-seed", "1",
		"-util-pairs", "200", "-util-scenarios", "3", "-check")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "congestion_as1239.golden", out)
}

// TestSpreadBeatsRTRPeak is the acceptance gate for the load-spreading
// scheme: under the default congestion workload it must report a lower
// post-recovery peak-link utilization than plain RTR on the bundled
// Rocketfuel topology the experiment runs on.
func TestSpreadBeatsRTRPeak(t *testing.T) {
	out, code := runCLI(t, "-exp", "congestion", "-as", "AS1239", "-seed", "1",
		"-util-pairs", "400", "-util-scenarios", "4")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	peaks := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "AS1239" {
			continue
		}
		peak, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		peaks[f[1]] = peak
	}
	if len(peaks) != 2 {
		t.Fatalf("expected rtr and rtr-spread rows, got %v\noutput:\n%s", peaks, out)
	}
	if peaks["rtr-spread"] >= peaks["rtr"] {
		t.Errorf("rtr-spread post-recovery peak %.4f not below rtr's %.4f", peaks["rtr-spread"], peaks["rtr"])
	}
}

// TestUnknownSchemeExitsOne: a scheme name the registry doesn't know
// is rejected at flag parse with exit 1, before any world is built.
func TestUnknownSchemeExitsOne(t *testing.T) {
	cmd := exec.Command(binary(t), "-exp", "congestion", "-as", "AS1239", "-scheme", "ospf")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit 1", err)
	}
	if !strings.Contains(stderr.String(), "unknown scheme") {
		t.Errorf("stderr %q does not explain the unknown scheme", stderr.String())
	}
}
