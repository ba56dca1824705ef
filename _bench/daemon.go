package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups holds what must be undone however the run ends: child
// processes to kill and scratch directories to remove. main runs it on
// normal exit, on failure and on SIGINT/SIGTERM.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildDir is where compiled artefacts go: inside the checkout, in the
// directory the harness reserves for build output.
const buildDir = ".bench_build"

// buildDaemon compiles ./cmd/tempest-collectd and returns the binary's
// path and how long one build took. It builds three times into fresh
// paths and reports the median, so the first build in a checkout (which
// compiles the whole module) does not pass for the set-up cost. One
// binary is enough to run: a repeat build that fails is reported and
// left out of the median.
func buildDaemon() (string, time.Duration, error) {
	if _, err := os.Stat("cmd/tempest-collectd"); err != nil {
		return "", 0, fmt.Errorf("run from the repository root: %w", err)
	}
	dir, err := os.MkdirTemp(mkBuildDir(), "collectd-")
	if err != nil {
		return "", 0, err
	}
	onExit(func() { os.RemoveAll(dir) })
	var times []float64
	var bin string
	var failed error
	for i := 0; i < 3; i++ {
		to := filepath.Join(dir, fmt.Sprintf("tempest-collectd.%d", i))
		start := time.Now()
		out, err := exec.Command("go", "build", "-o", to, "./cmd/tempest-collectd").CombinedOutput()
		if err != nil {
			failed = fmt.Errorf("go build ./cmd/tempest-collectd: %v\n%s", err, out)
			fmt.Fprintln(os.Stderr, "_bench:", failed)
			continue
		}
		bin = to
		times = append(times, time.Since(start).Seconds())
	}
	if bin == "" {
		return "", 0, failed
	}
	return bin, time.Duration(median(times) * float64(time.Second)), nil
}

func mkBuildDir() string {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return ""
	}
	return buildDir
}

// storeRoot picks where durable stores live for this run and says why.
// tmpfs is preferred: on this class of machine the VM disk's fsync is
// both slower (≈2×) and three to four times noisier than the code under
// test, so disk latency is reported as a per-layer number instead of
// being folded into every ingest metric. The fallback stays inside the
// checkout.
func storeRoot() (dir, kind string) {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if err := syscall.Statfs(shm, &st); err == nil && uint64(st.Bavail)*uint64(st.Bsize) > 2<<30 {
		if d, err := os.MkdirTemp(shm, "tempest-bench-"); err == nil {
			onExit(func() { os.RemoveAll(d) })
			return d, "tmpfs (" + shm + ")"
		}
	}
	d, err := os.MkdirTemp(mkBuildDir(), "store-")
	if err != nil {
		fatalf("no writable store directory: %v", err)
	}
	onExit(func() { os.RemoveAll(d) })
	return d, "checkout filesystem (" + buildDir + ")"
}

// daemon is one running tempest-collectd child.
type daemon struct {
	cmd      *exec.Cmd
	ingest   string // host:port
	http     string // http://host:port
	debug    string // http://host:port
	started  time.Time
	readyIn  time.Duration // exec → address line
	waitOnce sync.Once
	waitErr  error
}

// startDaemon launches the collector on ephemeral loopback ports and
// waits for its address line, which the daemon prints only after
// collect.New has replayed the store — so readyIn is the restart
// recovery time an operator waits for.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-log-level", "error",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	onExit(d.kill)
	lineCh := make(chan string, 1) // one send: the address line or ""
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		lineCh <- line
		io.Copy(io.Discard, br)
	}()
	select {
	case line := <-lineCh:
		d.readyIn = time.Since(d.started)
		for _, tok := range strings.Fields(line) {
			k, v, _ := strings.Cut(tok, "=")
			switch k {
			case "ingest":
				d.ingest = v
			case "http":
				d.http = "http://" + v
			case "debug":
				d.debug = "http://" + v
			}
		}
		if d.ingest == "" || d.http == "" || d.debug == "" {
			d.kill()
			return nil, fmt.Errorf("tempest-collectd: unexpected address line %q", line)
		}
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, fmt.Errorf("tempest-collectd: no address line within 120s")
	}
	return d, nil
}

// kill SIGKILLs the child and reaps it. Safe to call more than once.
func (d *daemon) kill() {
	d.waitOnce.Do(func() {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
		}
		d.waitErr = d.cmd.Wait()
	})
}

// cpuSeconds is the CPU time the child has used so far: the run time of
// every thread from /proc/<pid>/task/*/schedstat, which the scheduler
// keeps in nanoseconds — utime+stime in /proc/<pid>/stat count 10 ms
// ticks, too coarse for a 50 ms sample. Threads that have exited are not
// counted; the collector's pool of OS threads does not shrink mid-run.
func (d *daemon) cpuSeconds() float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	var nanos float64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			n, _ := strconv.ParseFloat(f[0], 64)
			nanos += n
		}
	}
	return nanos / 1e9
}

// peakRSSMB is the child's resident-set high-water mark.
func (d *daemon) peakRSSMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// get fetches one URL and returns status, body and latency. The client
// is shared so a query loop stays on one keep-alive connection.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	Timeout:   60 * time.Second,
}

func get(url string) (status int, body []byte, took time.Duration, err error) {
	start := time.Now()
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(start), err
}
