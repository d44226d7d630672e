package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// TestGoldenTable3Phase2Engines pins the engine-invariance contract at
// the CLI level: -phase2=alt must print byte-for-byte the table the
// default engine prints (the same golden file TestGoldenTable3 checks).
func TestGoldenTable3Phase2Engines(t *testing.T) {
	for _, engine := range []string{"alt"} {
		t.Run(engine, func(t *testing.T) {
			out, code := run(t, "-exp", "table3", "-as", "AS1239", "-cases", "50", "-seed", "1",
				"-phase2", engine)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			checkGolden(t, "table3_as1239.golden", out)
		})
	}
}

// TestPhase2FlagValidation: an unknown engine name must fail fast with
// a usage-style message, before any world is built.
func TestPhase2FlagValidation(t *testing.T) {
	cmd := exec.Command(binary(t), "-exp", "table2", "-as", "AS1239", "-phase2", "bfs")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatal("-phase2=bfs must fail")
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatal(err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit %d, want 1", ee.ExitCode())
	}
	if !strings.Contains(stderr.String(), `unknown -phase2 engine "bfs"`) {
		t.Fatalf("stderr missing engine error:\n%s", stderr.String())
	}
}
