// Command tempd is the stand-alone temperature sampling daemon: it reads
// every discovered sensor at the configured rate for the configured
// duration and writes the samples as a TPST trace — the component the
// paper launches before a profiled application's main (§3.2).
//
// Usage:
//
//	tempd -duration 10s -rate 4 -o temps.tpst
//	tempd -hwmon /sys/class/hwmon -duration 1m -o - | tempest-parse -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"time"

	"tempest/internal/introspect"
	"tempest/internal/sensors"
	"tempest/internal/tempd"
	"tempest/internal/thermal"
	"tempest/internal/trace"
	"tempest/internal/vclock"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tempd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tempd", flag.ContinueOnError)
	hwmon := fs.String("hwmon", "", "hwmon sysfs root (default /sys/class/hwmon)")
	rate := fs.Float64("rate", 4, "samples per second")
	duration := fs.Duration("duration", 10*time.Second, "sampling duration (0 = until SIGINT)")
	out := fs.String("o", "tempd.tpst", "output trace file (- for stdout)")
	simulate := fs.Bool("simulate", true, "fall back to simulated sensors when no hwmon chips exist")
	burn := fs.Bool("burn", false, "with simulated sensors: drive core 0 at full utilisation")
	flushEvery := fs.Duration("flush", time.Second, "crash-safe flush interval (0 = write once at exit)")
	logLevel := fs.String("log-level", "", "log verbosity: debug|info|warn|error (default info)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := introspect.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := introspect.NewLogger(os.Stderr, lvl)

	reg := sensors.NewRegistry(sensors.NewHwmonProvider(*hwmon))
	err = reg.Discover()
	var cpu *thermal.CPU
	var mu sync.Mutex
	if err == sensors.ErrNoSensors && *simulate {
		cpu, err = thermal.NewCPU(thermal.DefaultOpteronParams())
		if err != nil {
			return err
		}
		reg = sensors.NewRegistry(sensors.NewSimProvider(cpu, &mu, "sim"))
		err = reg.Discover()
		fmt.Fprintln(os.Stderr, "tempd: no hwmon sensors; using simulated sensor set")
	}
	if err != nil {
		return err
	}
	// A misbehaving chip must not take the run down: retry transient
	// errors, quarantine repeat offenders, keep re-probing them.
	reg.WrapResilient(sensors.ResilientConfig{})
	fmt.Fprintf(os.Stderr, "tempd: %d sensors, %.1f Hz\n", reg.Len(), *rate)

	tracer, err := trace.NewTracer(trace.Config{Clock: vclock.NewRealClock()})
	if err != nil {
		return err
	}

	// Open the output before sampling starts and stream segments to it as
	// we go: if the process is killed mid-run, the file holds a salvageable
	// prefix instead of nothing (ReadTrace's recovery mode).
	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "-" {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tw, err := trace.NewWriter(w, tracer.NodeID(), 0)
	if err != nil {
		return err
	}
	ir := introspect.Default()
	flushSeconds := ir.Distribution("tempest_tempd_flush_seconds", "Drain-and-write latency per crash-safe checkpoint.")
	fsyncSeconds := ir.Distribution("tempest_tempd_fsync_seconds", "fsync latency per crash-safe checkpoint (file output only).")
	ir.FuncCounter("tempest_tempd_trace_bytes_total", "Trace bytes written, header included.", func() float64 { return float64(tw.Bytes()) })
	ir.FuncCounter("tempest_tempd_trace_segments_total", "Trace segments written.", func() float64 { return float64(tw.Segments()) })
	ir.FuncCounter("tempest_tempd_trace_events_total", "Trace events flushed.", func() float64 { return float64(tw.Events()) })
	flush := func() error {
		start := time.Now()
		ev, sym := tracer.Drain()
		if err := tw.Flush(ev, sym); err != nil {
			return err
		}
		flushSeconds.ObserveSince(start)
		if f != nil {
			// A checkpoint is only crash-safe once it is on the platter,
			// not in the page cache.
			syncStart := time.Now()
			if err := f.Sync(); err != nil {
				return err
			}
			fsyncSeconds.ObserveSince(syncStart)
		}
		logger.Debug("flushed checkpoint", "events", len(ev), "trace_bytes", tw.Bytes(), "segments", tw.Segments())
		return nil
	}

	d, err := tempd.New(tempd.Config{Registry: reg, Tracer: tracer, RateHz: *rate})
	if err != nil {
		return err
	}
	if cpu != nil && *burn {
		mu.Lock()
		_ = cpu.SetCoreUtilization(0, 1)
		mu.Unlock()
	}
	if err := d.Start(); err != nil {
		return err
	}

	// Advance the simulated model in real time, if present.
	stopSim := make(chan struct{})
	var simWG sync.WaitGroup
	if cpu != nil {
		simWG.Add(1)
		go func() {
			defer simWG.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			last := time.Now()
			for {
				select {
				case <-stopSim:
					return
				case now := <-tick.C:
					mu.Lock()
					_ = cpu.Step(now.Sub(last))
					mu.Unlock()
					last = now
				}
			}
		}()
	}

	// Run until the duration elapses or SIGINT arrives (the paper's
	// destructor sends tempd a termination signal), flushing accumulated
	// events to the output at each crash-safe checkpoint.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	var flushC <-chan time.Time
	if *flushEvery > 0 {
		ft := time.NewTicker(*flushEvery)
		defer ft.Stop()
		flushC = ft.C
	}
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-sig:
			break loop
		case <-flushC:
			if err := flush(); err != nil {
				return fmt.Errorf("flush: %w", err)
			}
		}
	}
	if err := d.Stop(); err != nil {
		return err
	}
	close(stopSim)
	simWG.Wait()
	fmt.Fprintf(os.Stderr, "tempd: %d samples, busy fraction %.4f\n", d.Samples(), d.BusyFraction())
	reportDegraded(d)
	return flush()
}

// reportDegraded summarises per-sensor failures and non-healthy sensors on
// stderr so a degraded run is visible without parsing the trace.
func reportDegraded(d *tempd.Daemon) {
	per := d.FailuresBySensor()
	health := d.Health()
	for i, n := range per {
		if n == 0 {
			continue
		}
		state := "healthy"
		if i < len(health) {
			state = health[i].State.String()
		}
		fmt.Fprintf(os.Stderr, "tempd: sensor %d (%s): %d failed reads, now %s\n",
			i, health[i].Name, n, state)
	}
}
