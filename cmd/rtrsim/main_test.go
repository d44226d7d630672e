package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// binary builds the rtrsim binary once per test process.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rtrsim-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "rtrsim")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// runCLI executes the binary and returns its stdout and exit code; only
// stdout is asserted on — stderr carries progress and timings.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("rtrsim %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	if code != 0 && code != 2 {
		t.Fatalf("rtrsim %v: exit %d\nstderr:\n%s", args, code, stderr.String())
	}
	return stdout.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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

func TestGoldenTable3(t *testing.T) {
	out, code := runCLI(t, "-exp", "table3", "-as", "AS1239", "-cases", "50", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "table3_as1239.golden", out)
}

func TestGoldenFig11(t *testing.T) {
	out, code := runCLI(t, "-exp", "fig11", "-as", "AS1239", "-fig11-areas", "20", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "fig11_as1239.golden", out)
}

// goldenAllArgs is a small run of every experiment on two topologies:
// two, so Tables III and IV print their "Overall" rows.
var goldenAllArgs = []string{"-exp", "all", "-as", "AS1239,AS4323", "-cases", "30",
	"-fig11-areas", "5", "-loss-scenarios", "3", "-util-pairs", "100", "-util-scenarios", "2", "-seed", "1"}

// TestGoldenAll pins the stdout of every experiment and every CSV file
// -csv writes (testdata/csv), byte for byte.
func TestGoldenAll(t *testing.T) {
	dir := t.TempDir()
	out, code := runCLI(t, append(goldenAllArgs, "-csv", dir)...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "all.golden", out)

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for _, f := range files {
		written[f.Name()] = true
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("csv", f.Name()), string(got))
	}
	if *update {
		return
	}
	goldens, err := os.ReadDir(filepath.Join("testdata", "csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range goldens {
		if !written[f.Name()] {
			t.Errorf("-csv did not write %s", f.Name())
		}
	}
}

// TestProfilesSurviveInterrupt: a sweep stopped with exit 2 still
// flushes the CPU profile (a gzip stream) and writes the heap profile.
func TestProfilesSurviveInterrupt(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	_, code := runCLI(t, "-exp", "table3", "-as", "AS1239", "-cases", "200", "-block", "15",
		"-max-shards", "1", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	b, err := os.ReadFile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("cpu profile is not a gzip stream (%d bytes)", len(b))
	}
	if _, err := os.Stat(mem); err != nil {
		t.Errorf("heap profile not written: %v", err)
	}
}

// TestOutputIdenticalAcrossWorkers: the sharded sweep must make the
// CLI's stdout byte-identical for any -workers value.
func TestOutputIdenticalAcrossWorkers(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-exp", "table3,table4,fig11", "-as", "AS1239",
			"-cases", "40", "-block", "15", "-fig11-areas", "20", "-seed", "3",
			"-workers", workers}
	}
	want, code := runCLI(t, args("1")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, workers := range []string{"4", "16"} {
		got, code := runCLI(t, args(workers)...)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d", workers, code)
		}
		if got != want {
			t.Errorf("-workers %s changed the output", workers)
		}
	}
}

// TestInterruptAndResume: a run stopped after two shards (exit code
// 2) and resumed with more workers prints exactly the bytes of an
// uninterrupted run.
func TestInterruptAndResume(t *testing.T) {
	base := []string{"-exp", "table3,fig11", "-as", "AS1239",
		"-cases", "40", "-block", "15", "-fig11-areas", "20", "-seed", "5"}
	want, code := runCLI(t, append(base, "-workers", "2")...)
	if code != 0 {
		t.Fatalf("uninterrupted run: exit %d", code)
	}

	state := filepath.Join(t.TempDir(), "st")
	out, code := runCLI(t, append(base, "-workers", "1", "-state", state, "-max-shards", "2")...)
	if code != 2 {
		t.Fatalf("interrupted run: exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("interrupted run printed results:\n%s", out)
	}

	got, code := runCLI(t, append(base, "-workers", "4", "-state", state, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d", code)
	}
	if got != want {
		t.Error("interrupt+resume stdout differs from an uninterrupted run")
	}
}

func TestResumeRequiresState(t *testing.T) {
	cmd := exec.Command(binary(t), "-resume")
	if err := cmd.Run(); err == nil {
		t.Fatal("-resume without -state must fail")
	}
}

// TestUnknownExperimentExitsOne: a misspelt -exp name is rejected at
// flag parse with exit 1 and the list of valid names, instead of
// printing nothing and exiting 0. The package comment's list is held to
// the same slice the flag validates against.
func TestUnknownExperimentExitsOne(t *testing.T) {
	cmd := exec.Command(binary(t), "-exp", "table3,tabel4", "-as", "AS1239")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit 1", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q before rejecting the name", stdout.String())
	}
	list := strings.Join(experimentNames(), ", ")
	if msg := stderr.String(); !strings.Contains(msg, `unknown experiment "tabel4"`) || !strings.Contains(msg, list) {
		t.Errorf("stderr %q does not name the typo and the valid experiments", msg)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	doc = strings.Join(strings.Fields(strings.ReplaceAll(doc, "//", " ")), " ")
	if want := "Experiments: " + strings.Join(experimentNames(), " ") + ` (and "all").`; !strings.Contains(doc, want) {
		t.Errorf("package comment does not list the experiments as %q", want)
	}
}

// TestUnknownTopologyExitsOne: a topology name -as does not know fails
// at flag parse with exit 1 and the list of known names, before any
// table is printed, and names are trimmed like -exp and -scheme names
// ("AS1239, AS7018" is two known topologies).
func TestUnknownTopologyExitsOne(t *testing.T) {
	cmd := exec.Command(binary(t), "-exp", "table2", "-as", "AS1239,AS9999")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit 1", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q before rejecting the name", stdout.String())
	}
	list := strings.Join(topology.ASNames(), ", ")
	if msg := stderr.String(); !strings.Contains(msg, `unknown topology "AS9999"`) || !strings.Contains(msg, list) {
		t.Errorf("stderr %q does not name the unknown topology and the known ones", msg)
	}

	out, code := runCLI(t, "-exp", "table2", "-as", "AS1239, AS7018")
	if code != 0 {
		t.Fatalf("spaced -as list: exit %d", code)
	}
	for _, name := range []string{"AS1239", "AS7018"} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("table2 for a spaced -as list is missing %s:\n%s", name, out)
		}
	}
}
