package introspect

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// formatValue renders a scalar like the hand-rolled exposition this
// package replaced: integral values print as integers (the Prometheus
// text goldens use %d), everything else in shortest-float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, in registration order. Consecutive entries of the same family
// share one HELP/TYPE header, so labelled variants registered together
// render as one family block. Distributions render as summaries:
// <name>_count, <name>_sum, then min/avg/max stat series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, s := range r.Snapshot() {
		if s.Name != lastFamily {
			lastFamily = s.Name
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.Name, s.Help, s.Name, s.Kind); err != nil {
				return err
			}
		}
		if s.Kind == KindDistribution {
			if err := writePromDist(w, s); err != nil {
				return err
			}
			continue
		}
		series := s.Name
		if s.Labels != "" {
			series += "{" + s.Labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series, formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

func writePromDist(w io.Writer, s Sample) error {
	d := s.Dist
	if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %s\n", s.Name, d.N, s.Name, formatValue(d.Sum)); err != nil {
		return err
	}
	if d.N == 0 {
		return nil
	}
	for _, st := range []struct {
		stat string
		v    float64
	}{{"min", d.Min}, {"avg", d.Avg}, {"max", d.Max}} {
		if _, err := fmt.Fprintf(w, "%s{stat=%q} %s\n", s.Name, st.stat, formatValue(st.v)); err != nil {
			return err
		}
	}
	return nil
}

// jsonValue builds the expvar-style JSON value for a set of registries:
// a flat map of series name (family plus label text) to scalar, with
// distributions as {count,sum,min,avg,max,stddev} objects.
func jsonValue(regs []*Registry) map[string]any {
	out := make(map[string]any)
	for _, r := range regs {
		for _, s := range r.Snapshot() {
			key := s.Name
			if s.Labels != "" {
				key += "{" + s.Labels + "}"
			}
			if s.Kind == KindDistribution {
				d := s.Dist
				out[key] = map[string]any{
					"count": d.N, "sum": d.Sum, "min": d.Min,
					"avg": d.Avg, "max": d.Max, "stddev": d.Sdv,
				}
				continue
			}
			out[key] = s.Value
		}
	}
	return out
}

func writeJSONRegs(w io.Writer, regs []*Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonValue(regs))
}

// WriteText renders a human-readable one-pager of every metric — the
// format of /debug/introspect and tempest-live -status.
func (r *Registry) WriteText(w io.Writer) error { return writeTextRegs(w, []*Registry{r}) }

func writeTextRegs(w io.Writer, regs []*Registry) error {
	for _, r := range regs {
		for _, s := range r.Snapshot() {
			name := s.Name
			if s.Labels != "" {
				name += "{" + s.Labels + "}"
			}
			var err error
			if s.Kind == KindDistribution {
				d := s.Dist
				if d.N == 0 {
					_, err = fmt.Fprintf(w, "%-48s (no observations)\n", name)
				} else {
					_, err = fmt.Fprintf(w, "%-48s n=%d min=%.6g avg=%.6g max=%.6g sdv=%.6g sum=%.6g\n",
						name, d.N, d.Min, d.Avg, d.Max, d.Sdv, d.Sum)
				}
			} else {
				_, err = fmt.Fprintf(w, "%-48s %s\n", name, formatValue(s.Value))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the given registries (in order) as /debug/introspect:
// the human one-pager by default, ?format=json for the expvar-style
// document, ?format=prometheus for text exposition.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			writeJSONRegs(w, regs)
		case "prometheus", "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			for _, reg := range regs {
				if err := reg.WritePrometheus(w); err != nil {
					return
				}
			}
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeTextRegs(w, regs)
		}
	})
}

// expvar.Publish panics on duplicate names, so republishing (tests,
// daemon restarts in-process) is guarded by a package-level set.
var (
	expvarMu        sync.Mutex
	expvarPublished = make(map[string]bool)
)

// PublishExpvar publishes the registries as one expvar variable, making
// them visible on the standard /debug/vars page alongside cmdline and
// memstats. Publishing an already-published name rebinds it to the new
// registries (expvar.Publish itself is called only once per name).
func PublishExpvar(name string, regs ...*Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if !expvarPublished[name] {
		expvarPublished[name] = true
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			rs := expvarBound[name]
			expvarMu.Unlock()
			return jsonValue(rs)
		}))
	}
	expvarBound[name] = regs
}

// expvarBound maps published names to their current registries; guarded
// by expvarMu.
var expvarBound = make(map[string][]*Registry)

// ParseLogLevel maps a -log-level flag value onto a slog.Level. The
// empty string means Info, matching the daemons' default verbosity.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err == nil {
		return lvl, nil
	}
	return 0, fmt.Errorf("introspect: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds the daemons' standard structured logger: slog text
// handler on w at the given level.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
