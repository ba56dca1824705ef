package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tempest/internal/collect"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// stopDaemon sends the in-process daemon a SIGTERM and waits for a clean
// exit.
func stopDaemon(t *testing.T, done chan error) {
	t.Helper()
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

func getBody(t *testing.T, httpAddr, path string) string {
	t.Helper()
	res, err := http.Get(fmt.Sprintf("http://%s%s", httpAddr, path))
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

// TestDaemonStoreSurvivesRestart is the daemon-level durability loop:
// boot with -store-dir, ingest, SIGTERM (which must flush the store
// before exiting), verify the chains offline, restart on the same
// directory, and get the same fleet answer back.
func TestDaemonStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ingest, httpAddr, _, done := startDaemon(t, "-store-dir", dir)
	if err := run([]string{"-upload", "testdata/smoke.tpst", "-to", ingest}, io.Discard, nil); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if body := getBody(t, httpAddr, "/healthz"); body != "ok\n" {
		t.Fatalf("/healthz with a healthy store = %q, want \"ok\\n\"", body)
	}
	before := getBody(t, httpAddr, "/api/hotspots?k=3")
	stopDaemon(t, done)

	// The flushed store verifies end to end, through the same entry point
	// operators use.
	var rep bytes.Buffer
	if err := run([]string{"-verify-store", "-store-dir", dir}, &rep, nil); err != nil {
		t.Fatalf("-verify-store: %v\n%s", err, rep.String())
	}
	if !strings.Contains(rep.String(), "ok") || strings.Contains(rep.String(), "FAIL") {
		t.Fatalf("-verify-store report:\n%s", rep.String())
	}

	// Restart on the same directory: replay must reproduce the answer.
	_, httpAddr2, _, done2 := startDaemon(t, "-store-dir", dir)
	if after := getBody(t, httpAddr2, "/api/hotspots?k=3"); after != before {
		t.Errorf("hotspots diverged across restart:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if body := getBody(t, httpAddr2, "/api/profile/1?format=text"); !strings.Contains(body, "halo_exchange") {
		t.Errorf("recovered node profile missing functions:\n%s", body)
	}
	stopDaemon(t, done2)

	if err := run([]string{"-verify-store"}, io.Discard, nil); err == nil {
		t.Error("-verify-store without -store-dir accepted")
	}
}

// TestDaemonStoreDirFailFast pins the startup contract: a -store-dir the
// daemon can't use is a boot error, not a silently degraded collector.
func TestDaemonStoreDirFailFast(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-store-dir", filepath.Join(blocker, "store")}, io.Discard, nil)
	if err == nil {
		t.Fatal("unusable -store-dir accepted")
	}
}

// --- SIGKILL chaos: the crash-recovery property, end to end ------------

var daemonBin struct {
	once sync.Once
	path string
	err  error
}

// buildDaemonBinary compiles tempest-collectd once per test run so chaos
// tests can kill a real process, not an in-process goroutine.
func buildDaemonBinary(t *testing.T) string {
	t.Helper()
	daemonBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "tempest-collectd-bin-")
		if err != nil {
			daemonBin.err = err
			return
		}
		daemonBin.path = filepath.Join(dir, "tempest-collectd")
		out, err := exec.Command("go", "build", "-o", daemonBin.path, ".").CombinedOutput()
		if err != nil {
			daemonBin.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if daemonBin.err != nil {
		t.Fatal(daemonBin.err)
	}
	return daemonBin.path
}

// freeAddr reserves an ephemeral 127.0.0.1 port and releases it — chaos
// restarts need the daemon to come back on the same address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemonProc launches a real tempest-collectd subprocess and waits
// for its address line, so a test can SIGKILL it mid-ingest.
func startDaemonProc(t *testing.T, bin, ingest, httpAddr, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-listen", ingest, "-http", httpAddr, "-store-dir", dir, "-log-level", "error")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lines <- line
	}()
	select {
	case line := <-lines:
		if !strings.HasPrefix(line, "ingest=") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("daemon subprocess printed %q, want address line", line)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon subprocess never printed addresses")
	}
	return cmd
}

// buildChaosTrace mirrors internal/collect's test trace: deterministic
// enter/sample/exit cycles whose sample values round-trip the ship-path
// quantisation bit-for-bit, so shipped and locally ingested profiles are
// byte-identical.
func buildChaosTrace(t *testing.T, node uint32, funcs []string, calls int) *trace.Trace {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk, NodeID: node, LaneBufferCap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lane := tr.NewLane()
	ids := make([]uint32, len(funcs))
	for i, name := range funcs {
		ids[i] = tr.RegisterFunc(name)
	}
	for i := 0; i < calls; i++ {
		f := ids[i%len(ids)]
		clk.Advance(time.Millisecond)
		lane.Enter(f)
		clk.Advance(time.Millisecond)
		tr.Sample(0, 40+float64(node)+0.25*float64(i%8)+float64(i%len(ids)))
		clk.Advance(time.Duration(1+i%3) * time.Millisecond)
		if err := lane.Exit(f); err != nil {
			t.Fatal(err)
		}
	}
	trc := tr.Finish()
	trc.Rank = node
	return trc
}

// TestDaemonStoreChaosSIGKILL is the acceptance property from the issue:
// SIGKILL a durable collector mid-ingest, restart it on the same
// -store-dir, and every batch the shipper was ever acked for must be
// present — the fleet hot-spot answer equals an uninterrupted run's, and
// the store verifies end to end.
func TestDaemonStoreChaosSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	bin := buildDaemonBinary(t)
	dir := t.TempDir()
	ingestAddr, httpAddr := freeAddr(t), freeAddr(t)

	tr := buildChaosTrace(t, 1, []string{"compute", "halo_exchange", "io_flush"}, 120)
	const batchLen = 5
	ship := func(s *collect.Shipper, from, to int) {
		for i := from; i < to; i += batchLen {
			end := i + batchLen
			if end > to {
				end = to
			}
			if err := s.Ship(tr.Events[i:end], tr.Sym); err != nil {
				t.Fatalf("Ship at %d: %v", i, err)
			}
		}
	}

	proc1 := startDaemonProc(t, bin, ingestAddr, httpAddr, dir)
	s := collect.NewShipper(ingestAddr, tr.NodeID, tr.Rank, collect.ShipperOptions{
		DialBackoffBase: 5 * time.Millisecond,
		DialBackoffMax:  100 * time.Millisecond,
		FlushTimeout:    30 * time.Second,
	})
	half := len(tr.Events) / 2
	ship(s, 0, half)

	// Wait until the daemon has genuinely acked work, then kill it
	// without warning — no flush, no signal handler, nothing.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().AckedSegments < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never acked segments: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := proc1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	proc1.Wait()

	// Restart on the same address and directory; the shipper reconnects,
	// resumes from the replayed cursor, and ships the rest.
	proc2 := startDaemonProc(t, bin, ingestAddr, httpAddr, dir)
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()
	ship(s, half, len(tr.Events))
	if err := s.Close(); err != nil {
		t.Fatalf("shipper close: %v", err)
	}
	st := s.Stats()
	if st.DroppedSegments != 0 || st.AckedSegments != st.EnqueuedSegments {
		t.Fatalf("shipper lost data across the crash: %+v", st)
	}

	// Oracle: the same trace into a collector that never crashed. The
	// recovered daemon must give the byte-identical API answer.
	oracle := collect.New(collect.Options{})
	defer oracle.Close()
	if err := oracle.IngestTrace(tr); err != nil {
		t.Fatal(err)
	}
	osrv := httptest.NewServer(oracle.Handler())
	defer osrv.Close()
	want := getBody(t, strings.TrimPrefix(osrv.URL, "http://"), "/api/hotspots?k=10")
	got := getBody(t, httpAddr, "/api/hotspots?k=10")
	if got != want {
		t.Errorf("hotspots after SIGKILL recovery diverge from uninterrupted run:\n--- recovered ---\n%s--- oracle ---\n%s", got, want)
	}
	gotProf := getBody(t, httpAddr, "/api/profile/1?format=text")
	wantProf := getBody(t, strings.TrimPrefix(osrv.URL, "http://"), "/api/profile/1?format=text")
	if gotProf != wantProf {
		t.Errorf("node profile after SIGKILL recovery diverges:\n--- recovered ---\n%s--- oracle ---\n%s", gotProf, wantProf)
	}
	// Resends and replay deliver whole batches in order: nothing may land
	// behind the builder's fold boundary (the field is omitted at zero).
	if nodes := getBody(t, httpAddr, "/api/nodes"); strings.Contains(nodes, "late_events") {
		t.Errorf("/api/nodes reports late events after SIGKILL recovery:\n%s", nodes)
	}

	// Graceful stop, then the operator-facing verifier over the full
	// crash-spanning history must pass.
	proc2.Process.Signal(syscall.SIGTERM)
	if err := proc2.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	out, err := exec.Command(bin, "-verify-store", "-store-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("-verify-store after chaos: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ok") {
		t.Fatalf("-verify-store report after chaos:\n%s", out)
	}
}
