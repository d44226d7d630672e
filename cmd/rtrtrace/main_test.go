package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// TestMain removes the directory binary built into once the tests ran.
func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rtrtrace-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "rtrtrace")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (rerun with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (rerun with -update if intended)\ngot:\n%s", path, got)
	}
}

// trace runs rtrtrace with args and returns its stdout, failing the
// test on a non-zero exit.
func trace(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("exit %d\nstderr:\n%s", ee.ExitCode(), stderr.String())
		}
		t.Fatal(err)
	}
	return stdout.String()
}

// TestGoldenPaperTableI pins the default run: the worked example of
// the paper's Fig. 6, whose phase-1 rows are exactly Table I.
func TestGoldenPaperTableI(t *testing.T) {
	checkGolden(t, "table1.golden", trace(t))
}

// TestGoldenSynthesizedTrace pins a trace on a synthesized Table II
// topology with an explicit failure disk.
func TestGoldenSynthesizedTrace(t *testing.T) {
	checkGolden(t, "trace_as1239.golden", trace(t, "-as", "AS1239", "-seed", "1",
		"-cx", "1000", "-cy", "1000", "-r", "250", "-src", "0", "-dst", "20"))
}

// TestGoldenDropTrace pins the phase-2 drop and its explanation line:
// a recoverable case whose failure is one default-generator disk (one
// cluster), where a clean walk still misses the link the routed packet
// dies on.
func TestGoldenDropTrace(t *testing.T) {
	checkGolden(t, "trace_drop.golden", trace(t, "-as", "AS3320", "-seed", "1",
		"-cx", "875.4283743739604", "-cy", "849.2749941425313", "-r", "237.36461457342187",
		"-src", "9", "-dst", "60"))
}

// TestBadEndpointsExitOne: on a synthesized topology both endpoints
// are required, must be node IDs of the graph and must differ, and the
// topology must be a Table II name; anything else exits 1 with a
// message instead of panicking or tracing a default pair. So does a
// source that is a cut-off initiator (Outcome.RTR.NoLiveNeighbor): it
// rides no RTR session, so there is no walk to trace.
func TestBadEndpointsExitOne(t *testing.T) {
	area := []string{"-as", "AS209", "-cx", "900", "-cy", "1100", "-r", "220"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"src-out-of-range", []string{"-src", "100000", "-dst", "3"}, "has nodes"},
		{"dst-out-of-range", []string{"-src", "3", "-dst", "100000"}, "has nodes"},
		{"no-endpoints", nil, "needs both -src and -dst"},
		{"no-dst", []string{"-src", "3"}, "needs both -src and -dst"},
		{"same-endpoint", []string{"-src", "3", "-dst", "3"}, "must differ"},
		{"unknown-topology", []string{"-as", "AS0", "-src", "3", "-dst", "4"}, "unknown topology"},
		{"cut-off-initiator", []string{"-as", "AS1239", "-cx", "1209.3205759592392", "-cy", "1881.0181760900248",
			"-r", "232.9120106436981", "-src", "5", "-dst", "0"}, "has no live neighbor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(binary(t), append(append([]string(nil), area...), tc.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("want exit 1, got %v\nstderr:\n%s", err, stderr.String())
			}
			if !bytes.Contains(stderr.Bytes(), []byte(tc.want)) {
				t.Errorf("stderr %q does not say %q", stderr.String(), tc.want)
			}
		})
	}
}
