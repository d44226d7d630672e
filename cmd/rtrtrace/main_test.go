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

// TestGoldenPaperTableI pins the default run: the worked example of
// the paper's Fig. 6, whose phase-1 rows are exactly Table I.
func TestGoldenPaperTableI(t *testing.T) {
	cmd := exec.Command(binary(t))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("exit %d\nstderr:\n%s", ee.ExitCode(), stderr.String())
		}
		t.Fatal(err)
	}
	checkGolden(t, "table1.golden", stdout.String())
}

// TestGoldenSynthesizedTrace pins a trace on a synthesized Table II
// topology with an explicit failure disk.
func TestGoldenSynthesizedTrace(t *testing.T) {
	cmd := exec.Command(binary(t), "-as", "AS1239", "-seed", "1",
		"-cx", "1000", "-cy", "1000", "-r", "250", "-src", "0", "-dst", "20")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("exit %d\nstderr:\n%s", ee.ExitCode(), stderr.String())
		}
		t.Fatal(err)
	}
	checkGolden(t, "trace_as1239.golden", stdout.String())
}

// TestBadEndpointsExitOne: on a synthesized topology both endpoints
// are required, must be node IDs of the graph and must differ; anything
// else exits 1 with a message instead of panicking or tracing a
// default pair.
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
