package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// TestFailureFlagValidation: an invalid -failure spec must exit 1
// before any experiment runs, printing the parse error.
func TestFailureFlagValidation(t *testing.T) {
	cmd := exec.Command(binary(t), "-exp", "table2", "-as", "AS1239", "-failure", "frisbee")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("-failure=frisbee must exit nonzero, got %v", err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit %d, want 1", ee.ExitCode())
	}
	if !strings.Contains(stderr.String(), "unknown generator kind") {
		t.Fatalf("stderr missing the parse error:\n%s", stderr.String())
	}
}

// TestFailureDefaultSpecMatchesUnset: -failure disk is the same
// generator as the default, so stdout must be byte-identical — the
// refactoring contract that keeps the golden files valid.
func TestFailureDefaultSpecMatchesUnset(t *testing.T) {
	base := []string{"-exp", "table3", "-as", "AS1239", "-cases", "40", "-seed", "1"}
	want, code := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	got, code := runCLI(t, append(base, "-failure", "disk")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if got != want {
		t.Error("-failure disk changed the output relative to the default")
	}
}

// TestFailureGeneratorSweeps: each alternative generator family runs a
// small checked sweep end to end — including a Fig.-11-style radius
// curve for the models that support radius pinning — deterministically
// across worker counts.
func TestFailureGeneratorSweeps(t *testing.T) {
	for _, spec := range []string{"disks:k=2,disjoint", "cut:w=150", "srlg:g=9,n=2"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			exp := "table3,fig11"
			if strings.HasPrefix(spec, "srlg") {
				exp = "table3" // srlg has no radius knob; fig11 refuses it
			}
			args := func(workers string) []string {
				return []string{"-exp", exp, "-as", "AS1239", "-cases", "30",
					"-fig11-areas", "10", "-seed", "2", "-check",
					"-failure", spec, "-workers", workers}
			}
			want, code := runCLI(t, args("1")...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			if !strings.Contains(want, "Table III") {
				t.Fatalf("sweep produced no Table III output:\n%s", want)
			}
			got, code := runCLI(t, args("4")...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			if got != want {
				t.Error("-workers changed the output under a non-default generator")
			}
		})
	}
}

// TestFailureFig11RequiresRadius: radius-free generators must refuse
// fig11 with a clear error.
func TestFailureFig11RequiresRadius(t *testing.T) {
	cmd := exec.Command(binary(t), "-exp", "fig11", "-as", "AS1239",
		"-fig11-areas", "10", "-failure", "link")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("fig11 with -failure link must exit 1, got %v", err)
	}
	if !strings.Contains(stderr.String(), "radius") {
		t.Fatalf("stderr missing the radius error:\n%s", stderr.String())
	}
}
