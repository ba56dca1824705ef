package instrument

import (
	"fmt"
	"sync"
	"testing"

	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// resetPolicy restores the package's process-wide policy state between
// tests: detail default, no overrides, empty buckets, no directive seen
// (so the package also passes under -count=N).
func resetPolicy(t *testing.T) {
	t.Helper()
	restore := func() {
		Detach(nil)
		appliedRev.Store(0)
		Apply(Directive{Default: ModeDetail})
		FlushCoarse()
	}
	restore()
	t.Cleanup(restore)
}

func TestModeOffRecordsNothing(t *testing.T) {
	resetPolicy(t)
	tr := newTracer(t)
	slots := Register("pkg/off", []string{"pkg.Off"})
	Attach(tr)
	defer Detach(tr)
	if !SetFunctionMode("pkg.Off", ModeOff) {
		t.Fatal("SetFunctionMode: name not registered")
	}
	Trace(slots[0])()
	events, _ := tr.Snapshot()
	for _, e := range events {
		if e.Kind == trace.KindEnter || e.Kind == trace.KindExit {
			t.Fatalf("ModeOff recorded event %v", e)
		}
	}
	if rep := FlushCoarse(); len(rep) != 0 {
		t.Fatalf("ModeOff filled coarse bucket: %v", rep)
	}
}

func TestModeCoarseBucketsWithoutEvents(t *testing.T) {
	resetPolicy(t)
	clk := vclock.NewVirtualClock()
	tr, err := trace.NewTracer(trace.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	slots := Register("pkg/coarse", []string{"pkg.CoarseA", "pkg.CoarseB"})
	Attach(tr)
	defer Detach(tr)
	SetDefaultMode(ModeCoarse)

	for i := 0; i < 3; i++ {
		exit := Trace(slots[0])
		clk.Advance(1000) // 1µs inside the function
		exit()
	}
	Trace(slots[1])()

	events, _ := tr.Snapshot()
	for _, e := range events {
		if e.Kind == trace.KindEnter || e.Kind == trace.KindExit {
			t.Fatalf("ModeCoarse recorded event %v", e)
		}
	}
	rep := FlushCoarse()
	if len(rep) != 2 {
		t.Fatalf("coarse report has %d entries, want 2: %v", len(rep), rep)
	}
	if rep[0].Name != "pkg.CoarseA" || rep[0].Calls != 3 || rep[0].Nanos != 3000 {
		t.Fatalf("bucket A = %+v, want 3 calls / 3000 ns", rep[0])
	}
	if rep[1].Name != "pkg.CoarseB" || rep[1].Calls != 1 {
		t.Fatalf("bucket B = %+v, want 1 call", rep[1])
	}
	// Flush drains: a second flush is empty.
	if rep := FlushCoarse(); len(rep) != 0 {
		t.Fatalf("second flush not empty: %v", rep)
	}
}

func TestModeDetailAlsoBuckets(t *testing.T) {
	resetPolicy(t)
	tr := newTracer(t)
	slots := Register("pkg/both", []string{"pkg.Both"})
	Attach(tr)
	defer Detach(tr)
	Trace(slots[0])()
	events, _ := tr.Snapshot()
	n := 0
	for _, e := range events {
		if e.Kind == trace.KindEnter || e.Kind == trace.KindExit {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("detail mode recorded %d events, want 2", n)
	}
	rep := FlushCoarse()
	if len(rep) != 1 || rep[0].Calls != 1 {
		t.Fatalf("detail mode bucket = %v, want one call for pkg.Both", rep)
	}
}

func TestApplyDirectiveFullSetSemantics(t *testing.T) {
	resetPolicy(t)
	Register("pkg/dir", []string{"pkg.DirA", "pkg.DirB", "pkg.DirC"})

	if !Apply(Directive{Rev: 5, Default: ModeCoarse, Funcs: []FuncMode{
		{Name: "pkg.DirA", Mode: ModeDetail},
		{Name: "pkg.DirB", Mode: ModeOff},
		{Name: "pkg.NotRegistered", Mode: ModeDetail},
	}}) {
		t.Fatal("rev 5 not applied")
	}
	s := Current()
	if s.Rev != 5 || s.Default != ModeCoarse {
		t.Fatalf("status = %+v, want rev 5 default coarse", s)
	}
	got := map[string]Mode{}
	for _, f := range s.Overrides {
		got[f.Name] = f.Mode
	}
	if got["pkg.DirA"] != ModeDetail || got["pkg.DirB"] != ModeOff {
		t.Fatalf("overrides = %v", s.Overrides)
	}
	if _, ok := got["pkg.DirC"]; ok {
		t.Fatal("pkg.DirC should inherit the default, not carry an override")
	}

	// A stale (lower or equal) revision must not roll the policy back.
	if Apply(Directive{Rev: 4, Default: ModeDetail}) {
		t.Fatal("stale rev 4 applied over rev 5")
	}
	if Apply(Directive{Rev: 5, Default: ModeDetail}) {
		t.Fatal("duplicate rev 5 applied")
	}
	if Current().Default != ModeCoarse {
		t.Fatal("stale directive changed the default")
	}

	// The next revision replaces the full set: old overrides clear.
	if !Apply(Directive{Rev: 6, Default: ModeDetail}) {
		t.Fatal("rev 6 not applied")
	}
	s = Current()
	if s.Default != ModeDetail || len(s.Overrides) != 0 {
		t.Fatalf("after rev 6 status = %+v, want clean detail default", s)
	}
}

func TestApplyRevZeroAlwaysApplies(t *testing.T) {
	resetPolicy(t)
	Apply(Directive{Rev: 9, Default: ModeCoarse})
	if !Apply(Directive{Default: ModeDetail}) {
		t.Fatal("rev 0 (manual) directive skipped")
	}
	if Current().Default != ModeDetail {
		t.Fatal("rev 0 directive had no effect")
	}
}

// TestToggleRacesTrace drives concurrent Attach/Detach, per-function
// toggles and full directive swaps against a storm of active Trace
// calls — the satellite's -race coverage. Correctness here is "no race,
// no panic, exits stay callable"; the event stream is deliberately torn.
func TestToggleRacesTrace(t *testing.T) {
	resetPolicy(t)
	fnames := make([]string, 8)
	for i := range fnames {
		fnames[i] = fmt.Sprintf("pkg.Race%d", i)
	}
	slots := Register("pkg/race", fnames)

	tracers := []*trace.Tracer{newTracer(t), newTracer(t)}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Tracer churn: attach one of two tracers, detach, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			Attach(tracers[i%2])
			if i%3 == 0 {
				Detach(tracers[i%2])
			}
		}
	}()
	// Policy churn: per-function toggles and full directive swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				SetFunctionMode(fnames[i%len(fnames)], Mode(i%3))
			case 1:
				SetDefaultMode(Mode(i % 3))
			case 2:
				Apply(Directive{Default: ModeCoarse, Funcs: []FuncMode{{Name: fnames[i%len(fnames)], Mode: ModeDetail}}})
			case 3:
				ClearFunctionMode(fnames[i%len(fnames)])
			}
			if i%16 == 0 {
				FlushCoarse()
			}
			if i%32 == 0 {
				Current()
			}
		}
	}()
	// Late registration racing everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			Register("pkg/race/late", []string{fmt.Sprintf("pkg.RaceLate%d", i%4)})
		}
	}()
	// The workload: Trace storms from several goroutines.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				exit := Trace(slots[(w+i)%len(slots)])
				inner := Trace(slots[i%len(slots)])
				inner()
				exit()
			}
		}(w)
	}

	for i := 0; i < 2000; i++ {
		Trace(slots[i%len(slots)])()
	}
	close(stop)
	wg.Wait()
	Detach(nil)
}

func TestRegisterDedupsNames(t *testing.T) {
	resetPolicy(t)
	a := Register("pkg/dup", []string{"pkg.Dup"})
	b := Register("pkg/dup", []string{"pkg.Dup"})
	if a[0] != b[0] {
		t.Fatalf("re-registering returned slot %d then %d", a[0], b[0])
	}
}
