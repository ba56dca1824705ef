package introspect

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeDistribution(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Add(2)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("Counter is not get-or-create")
	}

	g := r.Gauge("g", "a gauge")
	g.Add(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}

	d := r.Distribution("d_seconds", "a latency")
	d.Observe(0.5)
	d.Observe(1.5)
	d.Observe(math.NaN()) // ignored by contract
	s := d.Snapshot()
	if s.N != 2 || s.Min != 0.5 || s.Max != 1.5 || s.Avg != 1.0 {
		t.Errorf("distribution snapshot = %+v", s)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	d := r.Distribution("z", "")
	var a *Accountant
	// All of these must be no-ops, not panics.
	c.Inc()
	g.Add(1)
	d.Observe(1)
	d.ObserveSince(time.Now())
	r.Func("f", "", func() float64 { return 1 })
	a.AddSelf(time.Second)
	if c.Value() != 0 || g.Value() != 0 || d.Snapshot().N != 0 || r.Snapshot() != nil || a.Fraction() != 0 {
		t.Error("nil metrics must read as zero")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestPrometheusRendering(t *testing.T) {
	r := New()
	r.Counter("t_events_total", "Events seen.").Add(42)
	r.CounterGauge("t_nodes", "Nodes ever seen.").Add(3)
	r.CounterL("t_shard_total", `shard="0"`, "Per shard.").Add(1)
	r.CounterL("t_shard_total", `shard="1"`, "Per shard.")
	r.Func("t_frac", "A ratio.", func() float64 { return 0.25 })
	d := r.Distribution("t_lat_seconds", "A latency.")
	d.Observe(2)
	d.Observe(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_events_total Events seen.
# TYPE t_events_total counter
t_events_total 42
# HELP t_nodes Nodes ever seen.
# TYPE t_nodes gauge
t_nodes 3
# HELP t_shard_total Per shard.
# TYPE t_shard_total counter
t_shard_total{shard="0"} 1
t_shard_total{shard="1"} 0
# HELP t_frac A ratio.
# TYPE t_frac gauge
t_frac 0.25
# HELP t_lat_seconds A latency.
# TYPE t_lat_seconds summary
t_lat_seconds_count 2
t_lat_seconds_sum 6
t_lat_seconds{stat="min"} 2
t_lat_seconds{stat="avg"} 3
t_lat_seconds{stat="max"} 4
`
	if b.String() != want {
		t.Errorf("prometheus text drifted:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestJSONAndTextRendering(t *testing.T) {
	r := New()
	r.Counter("j_total", "").Add(5)
	r.Distribution("j_seconds", "").Observe(1.5)
	var b strings.Builder
	if err := writeJSONRegs(&b, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc["j_total"] != 5.0 {
		t.Errorf("j_total = %v", doc["j_total"])
	}
	dist, ok := doc["j_seconds"].(map[string]any)
	if !ok || dist["count"] != 1.0 || dist["avg"] != 1.5 {
		t.Errorf("j_seconds = %v", doc["j_seconds"])
	}

	var txt strings.Builder
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "j_total") || !strings.Contains(txt.String(), "n=1") {
		t.Errorf("text one-pager missing entries:\n%s", txt.String())
	}
}

func TestFuncLatestWins(t *testing.T) {
	r := New()
	r.Func("fw", "", func() float64 { return 1 })
	r.Func("fw", "", func() float64 { return 2 })
	if got := r.Snapshot()[0].Value; got != 2 {
		t.Errorf("Func value = %v, want the latest registration (2)", got)
	}
	if n := len(r.Snapshot()); n != 1 {
		t.Errorf("re-registering Func created %d entries, want 1", n)
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant()
	a.AddSelf(30 * time.Millisecond)
	a.Sample(func() time.Duration { return 20 * time.Millisecond })
	if got := a.SelfTime(); got != 50*time.Millisecond {
		t.Errorf("SelfTime = %v, want 50ms", got)
	}
	// Live fraction: wall clock is tiny but positive, so the fraction is
	// finite and positive.
	if f := a.Fraction(); f <= 0 || math.IsInf(f, 1) {
		t.Errorf("Fraction = %v, want finite positive", f)
	}
	r := New()
	a.Register(r, "ov_frac", "overhead")
	if s := r.Snapshot(); len(s) != 1 || s[0].Value <= 0 {
		t.Errorf("registered accountant gauge = %+v", s)
	}
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]string{
		"": "INFO", "info": "INFO", "debug": "DEBUG", "warn": "WARN", "warning": "WARN", "error": "ERROR",
	} {
		lvl, err := ParseLogLevel(in)
		if err != nil || lvl.String() != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %s", in, lvl, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Error("ParseLogLevel(loud) should fail")
	}
}
