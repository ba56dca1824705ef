package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"tempest/internal/collect"
)

// startDaemon runs the daemon in-process on ephemeral ports and returns
// its ingest, HTTP and (when -debug-addr was passed) debug addresses plus
// a stop function.
func startDaemon(t *testing.T, extra ...string) (ingest, httpAddr, debugAddr string, done chan error) {
	t.Helper()
	var out bytes.Buffer
	pr, pw := io.Pipe()
	ready := make(chan *collect.Collector, 1)
	done = make(chan error, 1)
	args := append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, extra...)
	go func() {
		done <- run(args, io.MultiWriter(&out, pw), ready)
		pw.Close()
	}()
	line := make([]byte, 256)
	n, err := pr.Read(line)
	if err != nil {
		t.Fatalf("daemon never printed addresses: %v", err)
	}
	fields := strings.Fields(string(line[:n]))
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "ingest=") || !strings.HasPrefix(fields[1], "http=") {
		t.Fatalf("unexpected address line %q", string(line[:n]))
	}
	if len(fields) == 3 {
		if !strings.HasPrefix(fields[2], "debug=") {
			t.Fatalf("unexpected third address token %q", fields[2])
		}
		debugAddr = strings.TrimPrefix(fields[2], "debug=")
	}
	<-ready
	return strings.TrimPrefix(fields[0], "ingest="), strings.TrimPrefix(fields[1], "http="), debugAddr, done
}

func TestDaemonUploadAndQuery(t *testing.T) {
	ingest, httpAddr, debugAddr, done := startDaemon(t)
	if debugAddr != "" {
		t.Fatalf("debug address %q printed without -debug-addr", debugAddr)
	}

	// Client mode ships the canned trace into the running daemon.
	if err := run([]string{"-upload", "testdata/smoke.tpst", "-to", ingest}, io.Discard, nil); err != nil {
		t.Fatalf("upload: %v", err)
	}

	res, err := http.Get(fmt.Sprintf("http://%s/api/hotspots?k=3", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/api/hotspots: %d %s", res.StatusCode, body)
	}
	var resp struct {
		Functions []struct {
			Name string `json:"name"`
		} `json:"functions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	// halo_exchange executes at each cycle's thermal peak (right after
	// the compute burn), so it tops the contribution ranking.
	if len(resp.Functions) != 3 || resp.Functions[0].Name != "halo_exchange" {
		t.Fatalf("hotspot ranking = %+v, want 3 functions with halo_exchange first", resp.Functions)
	}

	res, err = http.Get(fmt.Sprintf("http://%s/metrics", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(metrics), "tempest_collect_events_total 150") {
		t.Errorf("metrics missing ingested events:\n%s", metrics)
	}

	// SIGTERM shuts the daemon down cleanly.
	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// TestDaemonDebugSurface boots with -debug-addr and checks all three
// debug endpoints answer: pprof's index, expvar's /debug/vars (with the
// published tempest variable), and /debug/introspect in both renderings.
// termOnWrite SIGTERMs this process the moment the daemon writes its
// address line — the earliest an outside supervisor could react to it.
type termOnWrite struct{}

func (termOnWrite) Write(p []byte) (int, error) {
	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	return len(p), nil
}

// TestDaemonSIGTERMAtReadiness pins the startup ordering: by the time
// the daemon announces itself (address line, then the ready hook) its
// signal handler is installed, so a SIGTERM in that instant is a clean,
// store-flushing shutdown rather than the default action killing the
// process.
func TestDaemonSIGTERMAtReadiness(t *testing.T) {
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		ready := make(chan *collect.Collector, 1)
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-store-dir", dir}, termOnWrite{}, ready)
		}()
		<-ready
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit on a SIGTERM sent as it became ready")
		}
		if err := run([]string{"-verify-store", "-store-dir", dir}, io.Discard, nil); err != nil {
			t.Fatalf("store left by the signalled daemon: %v", err)
		}
	}
}

func TestDaemonDebugSurface(t *testing.T) {
	_, _, debugAddr, done := startDaemon(t, "-debug-addr", "127.0.0.1:0")
	if debugAddr == "" {
		t.Fatal("-debug-addr did not print a debug= address token")
	}

	getBody := func(path string) string {
		t.Helper()
		res, err := http.Get(fmt.Sprintf("http://%s%s", debugAddr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		body, _ := io.ReadAll(res.Body)
		if res.StatusCode != 200 {
			t.Fatalf("GET %s: %d %s", path, res.StatusCode, body)
		}
		return string(body)
	}

	if body := getBody("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.300s", body)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(getBody("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["tempest"]; !ok {
		t.Error("/debug/vars missing the published tempest variable")
	}
	if body := getBody("/debug/introspect"); !strings.Contains(body, "tempest_collect_segments_total") {
		t.Errorf("/debug/introspect one-pager missing counters:\n%.300s", body)
	}
	if body := getBody("/debug/introspect?format=prometheus"); !strings.Contains(body, "# TYPE tempest_collect_fold_seconds summary") {
		t.Errorf("/debug/introspect?format=prometheus missing debug-only families:\n%.300s", body)
	}

	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	if err := run([]string{"-upload", "testdata/smoke.tpst"}, io.Discard, nil); err == nil {
		t.Error("-upload without -to accepted")
	}
	if err := run([]string{"-upload", "does-not-exist.tpst", "-to", "127.0.0.1:1"}, io.Discard, nil); err == nil {
		t.Error("missing upload file accepted")
	}
	if err := run([]string{"-listen", "256.0.0.1:bad"}, io.Discard, nil); err == nil {
		t.Error("bad listen address accepted")
	}
}
