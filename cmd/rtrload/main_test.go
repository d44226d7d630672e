package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
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
		dir, err := os.MkdirTemp("", "rtrload-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "rtrload")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// TestNoLoadFlagsExitOne: a flag value that would send no load, or
// panic sizing the connection pool, exits 1 at parse time with a
// message naming the flag — before any world is built or daemon is
// contacted (none runs here; a short -wait keeps a regression fast).
func TestNoLoadFlagsExitOne(t *testing.T) {
	base := []string{"-addr", "127.0.0.1:1", "-wait", "100ms"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"conns-zero", []string{"-conns", "0"}, "-conns"},
		{"conns-negative", []string{"-conns", "-1"}, "-conns"},
		{"duration-zero", []string{"-duration", "0"}, "-duration"},
		{"open-rate-zero", []string{"-mode", "open", "-rate", "0"}, "-rate"},
		{"open-rate-negative", []string{"-mode", "open", "-rate", "-5"}, "-rate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(binary(t), append(append([]string(nil), base...), tc.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("want exit 1, got %v\nstderr:\n%s", err, stderr.String())
			}
			if !bytes.Contains(stderr.Bytes(), []byte(tc.want)) {
				t.Errorf("stderr %q does not name %s", stderr.String(), tc.want)
			}
		})
	}
}
