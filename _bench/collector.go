package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"tempest/internal/collect"
	"tempest/internal/introspect"
	"tempest/internal/stats"
	"tempest/internal/store"
)

// collectorConfig is the part of tempest-collectd's configuration the
// workloads vary; it maps one-to-one onto daemon flags and onto
// collect.Options, so a workload runs unchanged against the child
// process (untraced) or an in-process collector (traced).
type collectorConfig struct {
	storeDir  string
	window    time.Duration // -store-window
	retention time.Duration // -retention
	granule   time.Duration // -archive-granule
}

func (c collectorConfig) flags() []string {
	var f []string
	if c.storeDir != "" {
		f = append(f, "-store-dir", c.storeDir)
	}
	if c.window > 0 {
		f = append(f, "-store-window", c.window.String())
	}
	if c.retention > 0 {
		f = append(f, "-retention", c.retention.String())
	}
	if c.granule > 0 {
		f = append(f, "-archive-granule", c.granule.String())
	}
	return f
}

func (c collectorConfig) options() collect.Options {
	return collect.Options{
		Logger:         introspect.NewLogger(os.Stderr, slog.LevelError),
		StoreDir:       c.storeDir,
		StoreOptions:   store.Options{Retention: c.retention, Window: c.window},
		ArchiveGranule: c.granule,
	}
}

// collectorEnd is a running collector as the workloads see it: three
// addresses and a way to stop it.
type collectorEnd struct {
	ingest  string // host:port for shippers
	http    string // base URL of the query API
	debug   string // URL of the debug server's /debug/introspect
	readyIn time.Duration
	child   *daemon            // set when the collector is the child process
	inproc  *collect.Collector // set when it runs inside the driver
	stop    func()
}

// startCollector starts the collector the run's mode calls for and
// counts nothing itself: callers decide whether the start is set-up or a
// measured restart.
func (ctx *runCtx) startCollector(cfg collectorConfig) (*collectorEnd, error) {
	if !ctx.inProcess {
		d, err := startDaemon(ctx.daemonBin, cfg.flags()...)
		if err != nil {
			return nil, err
		}
		return &collectorEnd{ingest: d.ingest, http: d.http, debug: d.debug + "/debug/introspect", readyIn: d.readyIn, child: d, stop: d.kill}, nil
	}
	start := time.Now()
	id := ctx.spans.begin("collect.New", 0, 0)
	c := collect.New(cfg.options())
	ctx.spans.end(id, 0)
	ready := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		c.Serve(ln)
	}()
	api := httptest.NewServer(c.Handler())
	dbg := httptest.NewServer(introspect.Handler(c.IntrospectRegistries()...))
	var once sync.Once // a workload that fails after a restart stops its collector twice
	return &collectorEnd{
		ingest: ln.Addr().String(), http: api.URL, debug: dbg.URL,
		readyIn: ready, inproc: c,
		stop: func() {
			once.Do(func() {
				api.Close()
				dbg.Close()
				c.Close()
				<-served
			})
		},
	}, nil
}

// counters is one scrape of the collector's debug surface: every
// counter and gauge by series name, and every distribution's summary.
type counters struct {
	values map[string]float64
	dists  map[string]stats.Summary
}

// scrape reads the counters the program already exports on
// /debug/introspect?format=json. The driver adds none.
func (e *collectorEnd) scrape() (*counters, error) {
	url := e.debug + "?format=json"
	status, body, _, err := get(url)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("scrape %s: status %d, %v", url, status, err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	out := &counters{values: map[string]float64{}, dists: map[string]stats.Summary{}}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out.values[k] = f
			continue
		}
		var d struct {
			Count         int
			Sum, Min, Max float64
			Avg           float64
		}
		if json.Unmarshal(v, &d) == nil {
			out.dists[k] = stats.Summary{N: d.Count, Sum: d.Sum, Min: d.Min, Max: d.Max, Avg: d.Avg}
		}
	}
	return out, nil
}

// regValue and regDist read one series from an in-process registry (the
// live session's and the shipper's metrics never leave this process).
func regValue(reg *introspect.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func regDist(reg *introspect.Registry, name string) stats.Summary {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Dist
		}
	}
	return stats.Summary{}
}
