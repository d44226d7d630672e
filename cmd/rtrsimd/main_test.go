package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
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
		dir, err := os.MkdirTemp("", "rtrsimd-test-")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "rtrsimd")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// TestUnknownSchemeExitsOne: an unknown -scheme must kill the daemon
// at flag parse with exit 1 and a registry-naming error — it must
// never get as far as binding a socket or building a world.
func TestUnknownSchemeExitsOne(t *testing.T) {
	cmd := exec.Command(binary(t), "-scheme", "ospf", "-as", "AS1239")
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

// TestStalledHeaderIsClosed: a client that sends half a request line
// and then goes quiet must not hold its connection forever — the
// server closes it once readHeaderTimeout passes.
func TestStalledHeaderIsClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.NotFoundHandler())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline only bounds the test: hitting it means
	// the server was still holding the connection.
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	start := time.Now()
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still holding a half-sent request after %v", time.Since(start).Round(time.Millisecond))
	}
}
