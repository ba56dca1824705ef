// Command tempest-collectd is Tempest's fleet collector daemon: it
// ingests live trace streams (tempest-live -ship) and bulk trace uploads
// from many nodes at once, maintains a streaming per-node profile for
// each, and answers cluster-wide hot-spot queries over HTTP.
//
// Usage:
//
//	tempest-collectd -listen :7077 -http :7078
//	tempest-collectd -listen :7077 -http :7078 -unit C -shards 8
//	tempest-collectd -upload trace.tpst -to collector:7077
//
// Server mode runs until SIGINT/SIGTERM, then shuts down gracefully
// (in-flight ingest drains first). On startup it prints the bound
// addresses as "ingest=HOST:PORT http=HOST:PORT" — with ":0" this is
// how scripts learn the real ports. With -debug-addr a third
// "debug=HOST:PORT" token is appended for the debug server, which serves
// net/http/pprof under /debug/pprof/, expvar under /debug/vars, and the
// full metric set (public plus internal) under /debug/introspect
// (?format=json|prometheus). The debug surface is opt-in and should stay
// on a loopback or otherwise firewalled address.
//
// With -store-dir the collector is durable: every acknowledged ingest
// batch is fsynced into an append-only, hash-chained store before the
// ack, so a crash — SIGKILL included — loses nothing a shipper was told
// is safe; on restart the store replays into warm profiles and shippers
// resume where they left off. -retention folds raw history older than
// the window into compact hot-spot archives (fleet rankings keep their
// full history; per-sample profiles cover the retained window), bucketed
// by -archive-granule so folded history still answers windowed hot-spot
// queries. The store is also the query substrate for ranged series:
// /api/series/{node}?from=&to= rebuilds a node's series over any stored
// range, and /api/windows/{node} lists the granularities a node's history
// can be queried at (raw segments vs folded archives).
// /api/hotspots?window=30m ranks the trailing window, in whole
// -archive-granules, from the live profiles — with or without a store.
// -verify-store walks the chains offline, prints a per-shard report and
// exits non-zero if any committed history fails to verify (a torn tail
// on the final segment is indistinguishable from a crash mid-write, so
// it is reported as a note, not a failure).
//
// Upload mode (-upload/-to) is the client for the bulk path: it streams
// one recorded trace file to a running collector over TCP and exits.
// The collector scans it exactly like tempest-parse would, so the
// resulting per-node profile is identical to an offline parse.
//
// With -policy the adaptive-sampling engine closes the loop: the
// collector ranks each node's coarse instrumentation buckets by the
// same degree-seconds scoring as /api/hotspots and piggybacks
// per-function detail/coarse directives on ship-stream acks
// (tempest-live -adaptive consumes them). -policy-topk, -policy-interval
// and -policy-budget tune nomination width, round cadence and the
// per-node overhead budget.
//
// Query API (see internal/collect):
//
//	curl http://collector:7078/api/nodes
//	curl http://collector:7078/api/hotspots?k=5
//	curl 'http://collector:7078/api/hotspots?window=30m'
//	curl http://collector:7078/api/profile/3?format=text
//	curl http://collector:7078/api/series/3
//	curl 'http://collector:7078/api/series/3?from=2026-08-06T12:00:00Z&to=2026-08-06T12:05:00Z'
//	curl http://collector:7078/api/windows/3
//	curl http://collector:7078/api/policy
//	curl http://collector:7078/metrics
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tempest/internal/analysis/costmodel"
	"tempest/internal/collect"
	"tempest/internal/introspect"
	"tempest/internal/parser"
	"tempest/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tempest-collectd:", err)
		os.Exit(1)
	}
}

// run starts the daemon (or performs one upload). ready, when non-nil,
// receives the collector once both listeners are bound — the test hook
// for driving a daemon in-process.
func run(args []string, out io.Writer, ready chan<- *collect.Collector) error {
	fs := flag.NewFlagSet("tempest-collectd", flag.ContinueOnError)
	listen := fs.String("listen", ":7077", "ingest TCP address (shippers and bulk uploads)")
	httpAddr := fs.String("http", ":7078", "HTTP query/metrics address")
	unit := fs.String("unit", "F", "temperature unit of aggregated profiles: F|C")
	shards := fs.Int("shards", 0, "ingest shards (0 = default)")
	upload := fs.String("upload", "", "upload this trace file to a collector and exit (client mode)")
	to := fs.String("to", "", "collector ingest address for -upload")
	storeDir := fs.String("store-dir", "", "durable store directory: acked ingest survives a crash and is replayed on restart (empty = memory-only)")
	retention := fs.Duration("retention", 0, "compact raw store history older than this into folded hot-spot archives (0 = keep raw forever)")
	storeWindow := fs.Duration("store-window", 0, "store segment roll window (0 = default 1h); retention granularity")
	archiveGranule := fs.Duration("archive-granule", 0, "wall-clock resolution of ranked history: ?window= answers for whole granules and retention folds archived heat into one window per granule (0 = store window)")
	verifyStore := fs.Bool("verify-store", false, "verify -store-dir's hash chains end to end, print a report and exit (0 = intact)")
	debugAddr := fs.String("debug-addr", "", "opt-in debug HTTP address (pprof, /debug/vars, /debug/introspect); keep it loopback")
	policy := fs.Bool("policy", false, "enable the adaptive-sampling policy engine: rank coarse reports and steer per-function instrumentation on adaptive shippers")
	policyTopK := fs.Int("policy-topk", 0, "functions per node nominated for detail instrumentation (0 = default 5)")
	policyInterval := fs.Duration("policy-interval", 0, "minimum time between policy rounds per node (0 = default 2s)")
	policyBudget := fs.Uint64("policy-budget", 0, "per-round detail event budget per node before backpressure (0 = default 100000)")
	policyPriors := fs.String("policy-priors", "", "instrumentation-plan JSON (tempest-instrument -plan) whose static scores seed each new node's detail set before the first measurement round")
	logLevel := fs.String("log-level", "", "log verbosity: debug|info|warn|error (default info)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := introspect.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := introspect.NewLogger(os.Stderr, lvl)
	if *upload != "" {
		if *to == "" {
			return fmt.Errorf("-upload requires -to host:port")
		}
		return uploadTrace(*upload, *to)
	}
	if *verifyStore {
		if *storeDir == "" {
			return fmt.Errorf("-verify-store requires -store-dir")
		}
		rep, err := store.VerifyDir(*storeDir)
		if err != nil {
			return err
		}
		rep.WriteText(out)
		return rep.Err()
	}
	if *storeDir != "" {
		// Fail fast on a mistyped or unwritable directory instead of
		// booting a silently degraded collector.
		if err := store.CheckDir(*storeDir); err != nil {
			return err
		}
	}

	u := parser.Fahrenheit
	if *unit == "C" || *unit == "c" {
		u = parser.Celsius
	}
	var priors map[string]float64
	if *policyPriors != "" {
		if priors, err = loadPriors(*policyPriors); err != nil {
			return err
		}
		logger.Info("static priors loaded", "file", *policyPriors, "functions", len(priors))
	}
	c := collect.New(collect.Options{
		Unit: u, Shards: *shards, Logger: logger,
		StoreDir:       *storeDir,
		StoreOptions:   store.Options{Retention: *retention, Window: *storeWindow},
		ArchiveGranule: *archiveGranule,
		Policy: collect.PolicyOptions{
			Enabled:      *policy,
			TopK:         *policyTopK,
			Interval:     *policyInterval,
			EventBudget:  *policyBudget,
			StaticPriors: priors,
		},
	})
	defer c.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		ln.Close()
		return err
	}
	// Catch signals before anything tells the outside world we are up: a
	// supervisor (or test) that reads the address line may SIGTERM us the
	// next instant, and the default action would skip the store flush.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	var dln net.Listener
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			hln.Close()
			return err
		}
		debugSrv = &http.Server{Handler: debugMux(c)}
		fmt.Fprintf(out, "ingest=%s http=%s debug=%s\n", ln.Addr(), hln.Addr(), dln.Addr())
	} else {
		fmt.Fprintf(out, "ingest=%s http=%s\n", ln.Addr(), hln.Addr())
	}
	if f, ok := out.(interface{ Sync() error }); ok {
		f.Sync()
	}
	if ready != nil {
		ready <- c
	}
	logger.Info("collector started", "ingest", ln.Addr().String(), "http", hln.Addr().String(), "debug", *debugAddr)

	srv := &http.Server{Handler: c.Handler()}
	errc := make(chan error, 3)
	go func() { errc <- c.Serve(ln) }()
	go func() {
		if err := srv.Serve(hln); err != http.ErrServerClosed {
			errc <- err
			return
		}
		errc <- nil
	}()
	if debugSrv != nil {
		go func() {
			if err := debugSrv.Serve(dln); err != http.ErrServerClosed {
				errc <- err
				return
			}
			errc <- nil
		}()
	}

	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if debugSrv != nil {
		debugSrv.Shutdown(ctx)
	}
	return c.Close()
}

// debugMux assembles the opt-in debug surface: pprof profiling, expvar's
// /debug/vars (the collector's registries published alongside cmdline and
// memstats), and /debug/introspect's renderings of every metric.
func debugMux(c *collect.Collector) *http.ServeMux {
	regs := c.IntrospectRegistries()
	introspect.PublishExpvar("tempest", regs...)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/introspect", introspect.Handler(regs...))
	return mux
}

// uploadTrace streams one recorded trace file to a collector's ingest
// port — the network equivalent of handing the file to tempest-parse.
// loadPriors reads an instrumentation plan (tempest-instrument -plan)
// and extracts its static scores as policy priors. Skipped functions
// are excluded: they carry no hooks, so nominating them is pointless.
func loadPriors(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plan, err := costmodel.ParsePlan(raw)
	if err != nil {
		return nil, err
	}
	priors := make(map[string]float64, len(plan.Entries))
	for _, e := range plan.Entries {
		if e.Mode != "skip" && e.Score > 0 {
			priors[e.Sym] = e.Score
		}
	}
	if len(priors) == 0 {
		return nil, fmt.Errorf("%s: no usable priors (no instrumented functions with positive scores)", path)
	}
	return priors, nil
}

func uploadTrace(path, addr string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	n, err := io.Copy(conn, f)
	if err != nil {
		return fmt.Errorf("upload after %d bytes: %w", n, err)
	}
	// Half-close signals EOF to the collector's scanner; waiting for the
	// peer's close confirms the trace was fully ingested before we exit.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		io.Copy(io.Discard, conn)
	}
	return nil
}
