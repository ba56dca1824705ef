// Command tempest-parse is the offline trace parser: it reads one or more
// TPST trace files (one per node), merges each node's function timeline
// with its temperature samples and prints the per-function statistical
// profile — the post-processing step of the paper's Figure 1.
//
// Usage:
//
//	tempest-parse node0.tpst node1.tpst
//	tempest-parse -format plot -sensor 0 node0.tpst
//	tempest-parse -stream -format csv node*.tpst
//	tempd -o - | tempest-parse -
//
// By default traces are loaded whole and parsed in parallel (one worker
// per core). With -stream each file flows through the segment scanner
// and online profile builder instead, and each node's output is emitted
// as soon as that node finishes — memory stays bounded by one segment
// plus one node's profile, independent of trace length, so arbitrarily
// long recordings parse in constant space.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tempest/internal/critpath"
	"tempest/internal/parser"
	"tempest/internal/report"
	"tempest/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tempest-parse:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tempest-parse", flag.ContinueOnError)
	unit := fs.String("unit", "F", "temperature unit: F|C")
	format := fs.String("format", "report", "output: report|csv|json|plot|gnuplot")
	sensor := fs.Int("sensor", 0, "sensor index for plot output")
	top := fs.Int("top", 0, "limit report to the N longest functions (0 = all)")
	labels := fs.Bool("labels", true, "print sensor labels")
	stream := fs.Bool("stream", false, "stream traces through the online builder with bounded memory (report|csv|json)")
	crit := fs.Bool("critpath", false, "print the critical-path (serialization) analysis instead of the heat profile; batch mode merges all traces into one cluster-wide view, -stream analyzes per node")
	timeline := fs.Bool("timeline", false, "print the per-lane busy/wait timeline gantt instead of the heat profile")
	width := fs.Int("timeline-width", 0, "timeline gantt columns (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no trace files given (use - for stdin)")
	}

	u := parser.Fahrenheit
	switch strings.ToUpper(*unit) {
	case "F":
	case "C":
		u = parser.Celsius
	default:
		return fmt.Errorf("unknown unit %q", *unit)
	}

	if *crit || *timeline {
		if *stream {
			if *format != "report" {
				return fmt.Errorf("-critpath/-timeline with -stream supports only -format report")
			}
			return runCritPathStream(files, *crit, *timeline, *width, report.Options{TopN: *top}, out)
		}
		traces, err := loadTraces(files)
		if err != nil {
			return err
		}
		return runCritPathBatch(traces, *crit, *timeline, *width, report.Options{TopN: *top}, *format, out)
	}

	if *stream {
		return runStream(files, u, *format, report.Options{
			OnlySignificant: true, Labels: *labels, TopN: *top,
		}, out)
	}

	traces, err := loadTraces(files)
	if err != nil {
		return err
	}

	p, err := parser.ParseAll(traces, parser.Options{Unit: u})
	if err != nil {
		return err
	}
	switch *format {
	case "report":
		return report.WriteProfile(out, p, report.Options{
			OnlySignificant: true, Labels: *labels, TopN: *top,
		})
	case "csv":
		return report.WriteSeriesCSV(out, p)
	case "json":
		return report.WriteJSON(out, p)
	case "plot":
		return report.PlotCluster(out, p, report.PlotOptions{Sensor: *sensor, FunctionBand: true})
	case "gnuplot":
		return report.WriteGnuplot(out, p, *sensor)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// loadTraces reads every trace file whole ("-" = stdin).
func loadTraces(files []string) ([]*trace.Trace, error) {
	var traces []*trace.Trace
	for _, path := range files {
		var tr *trace.Trace
		var err error
		if path == "-" {
			tr, err = trace.ReadTrace(os.Stdin)
		} else {
			f, ferr := os.Open(path)
			if ferr != nil {
				return nil, ferr
			}
			tr, err = trace.ReadTrace(f)
			f.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// runCritPathBatch merges every trace into one cluster-wide critical-path
// analysis — a straggler on one node is charged for the barrier wait it
// inflicts on the others.
func runCritPathBatch(traces []*trace.Trace, crit, timeline bool, width int, ropts report.Options, format string, out io.Writer) error {
	a, err := critpath.AnalyzeTraces(traces, critpath.Options{Timeline: timeline})
	if err != nil {
		return err
	}
	switch format {
	case "report":
		if crit {
			if err := report.WriteCritPath(out, a.Summary(), ropts); err != nil {
				return err
			}
			if timeline {
				if _, err := fmt.Fprintln(out); err != nil {
					return err
				}
			}
		}
		if timeline {
			return report.WriteTimeline(out, a.Tracks(), a.Duration(), width)
		}
		return nil
	case "json":
		switch {
		case crit && timeline:
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{
				"critpath": a.Summary(),
				"timeline": report.BuildTimelineJSON(a.Tracks(), a.Duration()),
			})
		case crit:
			return report.WriteCritPathJSON(out, a.Summary())
		default:
			return report.WriteTimelineJSON(out, a.Tracks(), a.Duration())
		}
	default:
		return fmt.Errorf("-critpath/-timeline supports -format report|json, not %q", format)
	}
}

// runCritPathStream analyzes each file independently through the scanner
// in O(segment + lanes) memory, emitting per-node output as each scan
// completes — the critical-path twin of runStream.
func runCritPathStream(files []string, crit, timeline bool, width int, ropts report.Options, out io.Writer) error {
	cs := report.NewCritPathStream(out, ropts)
	var sc *trace.Scanner
	for _, path := range files {
		a := critpath.New(critpath.Options{Timeline: timeline})
		err := scanFile(&sc, path, func(s *trace.Scanner) func([]trace.Event) error {
			return func(batch []trace.Event) error { return a.Add(s.NodeID(), s.Sym(), batch) }
		})
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if crit {
			if err := cs.Summary(a.Summary()); err != nil {
				return err
			}
			if timeline {
				if _, err := fmt.Fprintln(out); err != nil {
					return err
				}
			}
		}
		if timeline {
			if err := report.WriteTimeline(out, a.Tracks(), a.Duration(), width); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStream parses each file through a trace.Scanner feeding an online
// parser.Builder and emits per-node output the moment that node's scan
// completes. Peak memory is one segment's batch plus one node's profile
// — never the event history — regardless of trace size.
func runStream(files []string, u parser.Unit, format string, ropts report.Options, out io.Writer) error {
	var emit func(*parser.NodeProfile) error
	var finish func() error
	switch format {
	case "report":
		ps := report.NewProfileStream(out, ropts)
		emit = ps.Node
	case "csv":
		cs, err := report.NewSeriesCSVStream(out)
		if err != nil {
			return err
		}
		emit = cs.Node
	case "json":
		js, err := report.NewJSONStream(out, u)
		if err != nil {
			return err
		}
		emit = js.Node
		finish = js.Close
	default:
		return fmt.Errorf("format %q does not support -stream (use report|csv|json)", format)
	}
	// One scanner serves every file: Reset swaps the stream but keeps the
	// batch and payload buffers, so a many-file parse allocates its decode
	// buffers once instead of once per file.
	var sc *trace.Scanner
	for _, path := range files {
		np, err := streamFile(&sc, path, u)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := emit(np); err != nil {
			return err
		}
	}
	if finish != nil {
		return finish()
	}
	return nil
}

// streamFile scans one trace into a profile in O(segment) memory,
// reusing (or creating) the caller's scanner.
func streamFile(scp **trace.Scanner, path string, u parser.Unit) (*parser.NodeProfile, error) {
	var b *parser.Builder
	err := scanFile(scp, path, func(sc *trace.Scanner) func([]trace.Event) error {
		b = parser.NewBuilder(sc.NodeID(), sc.Sym(), parser.Options{Unit: u})
		return b.Add
	})
	if err != nil {
		return nil, err
	}
	b.SetTruncated((*scp).Truncated())
	return b.Finish()
}

// scanFile opens one trace (path "-" is stdin) on the caller's scanner,
// Reset onto it or created on first use, and hands every batch to the
// function begin returns once the header is read.
func scanFile(scp **trace.Scanner, path string, begin func(*trace.Scanner) func([]trace.Event) error) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if *scp == nil {
		sc, err := trace.NewScanner(r)
		if err != nil {
			return err
		}
		*scp = sc
	} else if err := (*scp).Reset(r); err != nil {
		return err
	}
	add := begin(*scp)
	for {
		batch, err := (*scp).Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := add(batch); err != nil {
			return err
		}
	}
}
