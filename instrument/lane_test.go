package instrument

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tempest/internal/trace"
	"tempest/internal/vclock"
)

// keysRecycled reports whether laneKey is the g address (reused once its
// goroutine ends) rather than the never-reused goroutine id.
var keysRecycled = runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"

// stackGoid is the reference identity the lane key is checked against:
// the goroutine id from the runtime.Stack header.
func stackGoid() uint64 {
	var buf [64]byte
	var id uint64
	fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d ", &id)
	return id
}

// laneCount reports how many lanes the attached binding has handed out.
func laneCount(t *testing.T) int {
	t.Helper()
	b := active.Load()
	if b == nil {
		t.Fatal("no tracer attached")
	}
	b.laneMu.Lock()
	defer b.laneMu.Unlock()
	return len(b.lanes)
}

// attachDetail attaches a fresh tracer with every function in detail mode.
func attachDetail(t *testing.T) *trace.Tracer {
	t.Helper()
	resetPolicy(t)
	tr := newTracer(t)
	Attach(tr)
	return tr
}

// checkLanesBalanced fails unless every lane's enters and exits nest and
// cancel out; it returns the per-lane enter counts.
func checkLanesBalanced(t *testing.T, events []trace.Event) map[uint32]int {
	t.Helper()
	depth := map[uint32]int{}
	enters := map[uint32]int{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindEnter:
			depth[e.Lane]++
			enters[e.Lane]++
		case trace.KindExit:
			if depth[e.Lane]--; depth[e.Lane] < 0 {
				t.Fatalf("lane %d: exit before enter", e.Lane)
			}
		}
	}
	for lane, d := range depth {
		if d != 0 {
			t.Fatalf("lane %d finished at depth %d", lane, d)
		}
	}
	return enters
}

// Goroutines alive at the same time never share a lane, however the
// cache maps their keys.
func TestLiveGoroutinesGetDistinctLanes(t *testing.T) {
	tr := attachDetail(t)
	slots := Register("pkg/lanes", []string{"pkg.LaneOuter", "pkg.LaneInner"})

	const workers, calls = 64, 20
	var first, done sync.WaitGroup
	release := make(chan struct{})
	first.Add(workers)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer done.Done()
			Trace(slots[0])()
			first.Done()
			<-release // every worker is alive, lane in hand, from here on
			for j := 1; j < calls; j++ {
				exit := Trace(slots[0])
				Trace(slots[1])()
				exit()
			}
		}()
	}
	first.Wait()
	if got := laneCount(t); got != workers {
		t.Errorf("%d live goroutines hold %d lanes", workers, got)
	}
	close(release)
	done.Wait()

	events, _ := tr.Snapshot()
	enters := checkLanesBalanced(t, events)
	if len(enters) != workers {
		t.Fatalf("events spread over %d lanes, want %d", len(enters), workers)
	}
	for lane, n := range enters {
		if want := 1 + 2*(calls-1); n != want {
			t.Errorf("lane %d recorded %d enters, want %d", lane, n, want)
		}
	}
}

// grow recurses deep enough that the runtime has to move the goroutine's
// stack to a larger allocation.
//
//go:noinline
func grow(n int) int {
	var pad [128]byte
	if n == 0 {
		return int(pad[0])
	}
	pad[n%len(pad)] = byte(n)
	return grow(n-1) + int(pad[(n+1)%len(pad)])
}

func TestLaneSurvivesStackGrowth(t *testing.T) {
	tr := attachDetail(t)
	slots := Register("pkg/grow", []string{"pkg.Grow"})

	done := make(chan struct{})
	go func() { // a fresh goroutine starts on a minimal stack
		defer close(done)
		before := laneKey()
		Trace(slots[0])()
		grow(20_000) // several MB of frames
		Trace(slots[0])()
		if after := laneKey(); after != before {
			t.Errorf("lane key moved with the stack: %#x then %#x", before, after)
		}
	}()
	<-done

	events, _ := tr.Snapshot()
	if enters := checkLanesBalanced(t, events); len(enters) != 1 {
		t.Fatalf("one goroutine's calls landed on %d lanes: %v", len(enters), enters)
	}
}

// While goroutines are alive, lane keys and runtime goroutine ids name
// the same goroutines: distinct ids ⇔ distinct keys, and a goroutine's
// key does not change between calls.
func TestLaneKeyMatchesGoroutineIdentity(t *testing.T) {
	const workers = 200
	type ident struct {
		key  uintptr
		goid uint64
	}
	ids := make([]ident, workers)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	ready.Add(workers)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			ids[i] = ident{laneKey(), stackGoid()}
			ready.Done()
			<-release
			runtime.Gosched()
			if again := (ident{laneKey(), stackGoid()}); again != ids[i] {
				t.Errorf("goroutine %d identity changed: %+v then %+v", i, ids[i], again)
			}
		}(i)
	}
	ready.Wait()
	close(release)
	done.Wait()

	byKey := map[uintptr]uint64{}
	byGoid := map[uint64]uintptr{}
	for _, id := range ids {
		if other, dup := byKey[id.key]; dup {
			t.Fatalf("live goroutines %d and %d share lane key %#x", other, id.goid, id.key)
		}
		if other, dup := byGoid[id.goid]; dup {
			t.Fatalf("goroutine id %d seen under keys %#x and %#x", id.goid, other, id.key)
		}
		byKey[id.key], byGoid[id.goid] = id.goid, id.key
	}
}

// Short-lived goroutines inherit the lanes of the ones before them, so a
// program that spawns one goroutine per request does not grow a lane per
// request for every Drain to lock.
func TestSequentialGoroutinesReuseLanes(t *testing.T) {
	if !keysRecycled {
		t.Skip("goroutine-id lane keys are never reused on " + runtime.GOARCH)
	}
	tr := attachDetail(t)
	slots := Register("pkg/short", []string{"pkg.Short"})

	const spawned = 20_000
	for i := 0; i < spawned; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer Trace(slots[0])()
		}()
		<-done
	}
	// The runtime keeps a free list of dead gs per P, so a handful are
	// in rotation; anything near the spawn count means no reuse.
	if got := laneCount(t); got > 100 {
		t.Errorf("%d sequential goroutines left %d lanes", spawned, got)
	}
	events, _ := tr.Snapshot()
	total := 0
	for _, n := range checkLanesBalanced(t, events) {
		total += n
	}
	if total != spawned {
		t.Errorf("recorded %d calls, want %d", total, spawned)
	}
}

// Trace hands out the slot's prebuilt exit hook, so a detail-mode call
// allocates nothing.
func TestDetailModeAllocatesNothing(t *testing.T) {
	attachDetail(t)
	slots := Register("pkg/alloc", []string{"pkg.Alloc"})

	Trace(slots[0])() // the goroutine's first call allocates its lane
	// The lane buffer grows by doubling, a dozen allocations over these
	// runs; AllocsPerRun reports the whole-number average.
	if avg := testing.AllocsPerRun(10_000, func() { Trace(slots[0])() }); avg != 0 {
		t.Errorf("detail mode allocates %.0f objects per call, want 0", avg)
	}
}

// A Register that grows the slot→fid table while other goroutines trace
// must never let Trace read a half-published table: every recorded event
// names the function whose slot was traced, and each function's events
// equal its bucket count.
func TestRegisterRacesTraceOnFids(t *testing.T) {
	resetPolicy(t)
	// Room for every call: a dropped event would break the count check.
	tr, err := trace.NewTracer(trace.Config{Clock: vclock.NewVirtualClock(), LaneBufferCap: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	Attach(tr)

	const batches, perBatch, tracers = 50, 8, 4
	var mu sync.Mutex
	var known []int // slots published to the tracing goroutines
	registered := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < tracers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				mine := append([]int(nil), known...)
				mu.Unlock()
				for _, s := range mine {
					Trace(s)()
				}
				select {
				case <-registered:
					return
				default:
				}
			}
		}()
	}
	for b := 0; b < batches; b++ {
		names := make([]string, perBatch)
		for i := range names {
			names[i] = fmt.Sprintf("pkg.Torn%d_%d", b, i)
		}
		got := Register("pkg/torn", names)
		mu.Lock()
		known = append(known, got...)
		mu.Unlock()
	}
	close(registered)
	wg.Wait()

	events, sym := tr.Snapshot()
	if n := tr.DroppedCount(); n != 0 {
		t.Fatalf("%d events dropped", n)
	}
	checkLanesBalanced(t, events)
	entersByName := map[string]uint64{}
	for _, e := range events {
		name, err := sym.Name(e.FuncID)
		if err != nil {
			t.Fatalf("event carries a function id the tracer never issued: %v", err)
		}
		if e.Kind == trace.KindEnter {
			entersByName[name]++
		}
	}
	for _, st := range FlushCoarse() {
		if entersByName[st.Name] != st.Calls {
			t.Errorf("%s: %d enter events for %d counted calls", st.Name, entersByName[st.Name], st.Calls)
		}
		delete(entersByName, st.Name)
	}
	for name, n := range entersByName {
		t.Errorf("%s: %d enter events but no counted calls", name, n)
	}
}
