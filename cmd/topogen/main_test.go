package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

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
		dir, err := os.MkdirTemp("", "topogen-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "topogen")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// topogen runs the binary with args and returns its stdout, failing
// the test on a non-zero exit.
func topogen(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("topogen %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestPresetIsTheSimulatedGraph: -as writes, byte for byte, the
// topology sim.NewWorld builds for the same name and seed — the graph
// rtrsim, rtrsimd and the benchmark simulate.
func TestPresetIsTheSimulatedGraph(t *testing.T) {
	w, err := sim.NewWorld("AS209", 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := topology.Write(&want, w.Topo); err != nil {
		t.Fatal(err)
	}
	if got := topogen(t, "-as", "AS209", "-seed", "1", "-o", "-"); got != want.String() {
		t.Errorf("topogen -as AS209 -seed 1 wrote %d bytes that differ from sim.NewWorld's %d-byte topology",
			len(got), want.Len())
	}
}

// TestStatsOnTinyFiles: -stats reads files with no node and with no
// link, which topology.Read accepts, without a crash or a NaN.
func TestStatsOnTinyFiles(t *testing.T) {
	for _, f := range []struct{ name, text string }{
		{"empty.topo", "topology empty\n"},
		{"one-node.topo", "topology one\nnode 0 10 20\n"},
	} {
		path := filepath.Join(t.TempDir(), f.name)
		if err := os.WriteFile(path, []byte(f.text), 0o644); err != nil {
			t.Fatal(err)
		}
		out := topogen(t, "-in", path, "-stats")
		if strings.Contains(out, "NaN") {
			t.Errorf("%s: -stats printed NaN:\n%s", f.name, out)
		}
		if !strings.Contains(out, "links        0\n") {
			t.Errorf("%s: -stats does not report zero links:\n%s", f.name, out)
		}
	}
}
