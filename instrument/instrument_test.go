package instrument

import (
	"sync"
	"testing"

	"tempest/internal/trace"
	"tempest/internal/vclock"
)

func newTracer(t *testing.T) *trace.Tracer {
	t.Helper()
	tr, err := trace.NewTracer(trace.Config{Clock: vclock.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceNoopWhenDetached(t *testing.T) {
	Detach(nil)
	slots := Register("pkg/a", []string{"pkg.A"})
	exit := Trace(slots[0])
	exit() // must not panic, must not record
	if Attached() {
		t.Fatal("no tracer should be attached")
	}
}

func TestTraceRecordsEnterExit(t *testing.T) {
	tr := newTracer(t)
	slots := Register("pkg/b", []string{"pkg.B", "pkg.C"})
	Attach(tr)
	defer Detach(tr)

	exit := Trace(slots[0])
	inner := Trace(slots[1])
	inner()
	exit()

	events, sym := tr.Snapshot()
	var got []string
	for _, e := range events {
		name, err := sym.Name(e.FuncID)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e.Kind.String()+":"+name)
	}
	want := []string{"enter:pkg.B", "enter:pkg.C", "exit:pkg.C", "exit:pkg.B"}
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestRegisterAfterAttach(t *testing.T) {
	tr := newTracer(t)
	Attach(tr)
	defer Detach(tr)
	slots := Register("pkg/late", []string{"pkg.Late"})
	exit := Trace(slots[0])
	exit()
	events, sym := tr.Snapshot()
	found := false
	for _, e := range events {
		if name, _ := sym.Name(e.FuncID); name == "pkg.Late" {
			found = true
		}
	}
	if !found {
		t.Fatal("late-registered function was not traced")
	}
}

func TestPerGoroutineLanes(t *testing.T) {
	tr := newTracer(t)
	slots := Register("pkg/conc", []string{"pkg.Conc"})
	Attach(tr)
	defer Detach(tr)

	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				exit := Trace(slots[0])
				exit()
			}
		}()
	}
	wg.Wait()

	events, _ := tr.Snapshot()
	// No two goroutines use a lane at the same time, so each lane's
	// stream must be internally balanced; the merged stream has
	// 2*50*workers events.
	if len(events) != 2*50*workers {
		t.Fatalf("got %d events, want %d", len(events), 2*50*workers)
	}
	checkLanesBalanced(t, events)
}

func TestDetachOnlyMatchingTracer(t *testing.T) {
	a, b := newTracer(t), newTracer(t)
	Attach(a)
	Detach(b) // not the attached one: no effect
	if !Attached() {
		t.Fatal("Detach(other) removed the active binding")
	}
	Detach(a)
	if Attached() {
		t.Fatal("Detach(active) left the binding attached")
	}
}

func TestOutOfRangeSlotIsNoop(t *testing.T) {
	tr := newTracer(t)
	Attach(tr)
	defer Detach(tr)
	Trace(1 << 30)() // must not panic
	Trace(-1)()
}
