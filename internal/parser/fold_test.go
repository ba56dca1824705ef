package parser_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"tempest/internal/parser"
	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// stripIntervals drops what a folded builder documents as different: the
// span lists. Everything else in its profile must equal an unfolded one's.
func stripIntervals(np *parser.NodeProfile) *parser.NodeProfile {
	for i := range np.Functions {
		np.Functions[i].Intervals = nil
	}
	return np
}

// laneKey says which queue of a Tracer an event went through: its lane's,
// or for samples tempd's own. Order is only guaranteed within a queue.
func laneKey(e *trace.Event) int {
	if e.Kind == trace.KindSample {
		return -1
	}
	return int(e.Lane)
}

// Disorders a real node can put into an in-order stream.
const (
	inOrder = iota
	// shuffled: the lanes interleave at random inside every batch.
	shuffled
	// skewed: as shuffled, and each batch ends at a different point for
	// every lane, up to two batches further on — a drain that empties the
	// lanes one after another while they keep recording, with a lane
	// asleep between reading the clock and appending. A batch k+1 then
	// holds events older than the newest of batch k−1, never older than
	// the newest before batch k−1 began: all of the disorder Fold's
	// two-batch distance allows.
	skewed
)

var disorderNames = [...]string{"inorder", "shuffled", "skewed"}

// cutBatches splits a stream in canonical order into batches of about
// chunk events under one of the disorders. Every queue keeps its order.
func cutBatches(rng *rand.Rand, evs []trace.Event, chunk, disorder int) [][]trace.Event {
	var out [][]trace.Event
	if disorder == inOrder {
		for ; len(evs) > 0; evs = evs[min(chunk, len(evs)):] {
			out = append(out, evs[:min(chunk, len(evs))])
		}
		return out
	}
	type queue struct {
		at  []int // indices into evs, ascending
		end int   // this batch takes the indices below end
	}
	queues := map[int]*queue{}
	var keys []int
	for i := range evs {
		k := laneKey(&evs[i])
		if queues[k] == nil {
			queues[k] = &queue{}
			keys = append(keys, k)
		}
		queues[k].at = append(queues[k].at, i)
	}
	for end := chunk; end < len(evs)+chunk; end += chunk {
		var batch []trace.Event
		live := append([]int(nil), keys...)
		for _, k := range live {
			queues[k].end = end
			if disorder == skewed && end < len(evs) {
				queues[k].end += rng.Intn(2 * chunk)
			}
		}
		for len(live) > 0 {
			i := rng.Intn(len(live))
			q := queues[live[i]]
			n := sort.SearchInts(q.at, q.end)
			if n == 0 {
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n = 1 + rng.Intn(n)
			for _, j := range q.at[:n] {
				batch = append(batch, evs[j])
			}
			q.at = q.at[n:]
		}
		if len(batch) > 0 {
			out = append(out, batch)
		}
	}
	return out
}

// foldPair feeds the same batches to a builder that folds after each and
// to one nobody folds.
type foldPair struct {
	folded, plain *parser.Builder
}

func newFoldPair(sym *trace.SymTab, opts parser.Options) foldPair {
	return foldPair{parser.NewBuilder(1, sym, opts), parser.NewBuilder(1, sym, opts)}
}

func (p foldPair) add(tb testing.TB, batch []trace.Event) {
	tb.Helper()
	if err := p.folded.Add(batch); err != nil {
		tb.Fatal(err)
	}
	p.folded.Fold()
	if err := p.plain.Add(batch); err != nil {
		tb.Fatal(err)
	}
}

// equal compares the two profiles, snapshots or final.
func (p foldPair) equal(tb testing.TB, when string, profile func(*parser.Builder) (*parser.NodeProfile, error)) {
	tb.Helper()
	got, err := profile(p.folded)
	if err != nil {
		tb.Fatal(err)
	}
	want, err := profile(p.plain)
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(stripIntervals(got), stripIntervals(want)) {
		for i := range want.Functions {
			if i >= len(got.Functions) || !reflect.DeepEqual(got.Functions[i], want.Functions[i]) {
				tb.Fatalf("%s: function %d:\nfolded   %+v\nunfolded %+v", when, i, got.Functions[i], want.Functions[i])
			}
		}
		tb.Fatalf("%s: folded profile differs from unfolded outside Functions", when)
	}
}

// TestFoldedBuilderMatchesUnfolded is the fold's exactness claim: on
// streams in order to within two batches a builder folded after every
// batch reports, at any moment and at the end, what an unfolded one does,
// span lists aside. 4 lanes, Zipf popularity with recursion, and a sample
// every 200 µs of virtual time so that thousands land inside spans.
func TestFoldedBuilderMatchesUnfolded(t *testing.T) {
	cases := []struct{ chunk, events, snapEvery int }{
		{chunk: 4096, events: 120_000, snapEvery: 5},
		{chunk: 7, events: 15_000, snapEvery: 211},
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, c := range cases {
			for disorder, name := range disorderNames {
				t.Run(fmt.Sprintf("seed%d/chunk%d/%s", seed, c.chunk, name), func(t *testing.T) {
					g := tracegen.New(tracegen.Config{Seed: seed, SampleEvery: 200 * time.Microsecond})
					p := newFoldPair(g.Sym(), parser.Options{})
					peak := 0
					for k, batch := range cutBatches(rand.New(rand.NewSource(seed)), g.Fill(nil, c.events), c.chunk, disorder) {
						p.add(t, batch)
						peak = max(peak, p.folded.Resident())
						if k%c.snapEvery == c.snapEvery-1 {
							p.equal(t, fmt.Sprintf("snapshot after batch %d", k), (*parser.Builder).Snapshot)
						}
					}
					if n := p.folded.Late(); n != 0 {
						t.Fatalf("%d late events in a stream in order to within two batches", n)
					}
					if all := p.plain.Resident(); peak*4 > all {
						t.Errorf("folded builder held up to %d spans, unfolded ends with %d: nothing was folded", peak, all)
					}
					p.equal(t, "finish", (*parser.Builder).Finish)
				})
			}
		}
	}
}

// Hand-built streams use lane 9 and the last function to move time along.
const tickLane = 9

func enter(lane, fid uint32, ts time.Duration) trace.Event {
	return trace.Event{Kind: trace.KindEnter, Lane: lane, FuncID: fid, TS: ts}
}

func exit(lane, fid uint32, ts time.Duration) trace.Event {
	return trace.Event{Kind: trace.KindExit, Lane: lane, FuncID: fid, TS: ts}
}

func sample(ts time.Duration, v float64) trace.Event {
	return trace.Event{Kind: trace.KindSample, TS: ts, ValueC: v}
}

// TestFoldBoundaryCases walks the boundary over the shapes that decide
// whether folding is exact. Every case is also held against an unfolded
// builder fed the same batches.
func TestFoldBoundaryCases(t *testing.T) {
	const f, g, tick = 0, 1, 2
	// A batch that only moves time along: the boundary follows two
	// batches behind.
	at := func(ts time.Duration) []trace.Event {
		return []trace.Event{enter(tickLane, tick, ts), exit(tickLane, tick, ts)}
	}
	type want struct {
		total   time.Duration
		calls   int64
		samples int
	}
	for _, c := range []struct {
		name    string
		opts    parser.Options
		batches [][]trace.Event
		// bound is where the boundary must stand before the last batch.
		bound time.Duration
		want  map[string]want
	}{
		{
			// Spilling [10, 20] when the boundary passes it would count it
			// again when lane 1's invocation closes over it.
			name: "open on one lane while it returns on another",
			batches: [][]trace.Event{
				{enter(1, f, 0), enter(2, f, 10), sample(15, 40), exit(2, f, 20)},
				at(50), at(60), at(70),
				{exit(1, f, 100)},
			},
			bound: 50,
			want:  map[string]want{"f": {total: 100, calls: 2, samples: 1}},
		},
		{
			name: "direct recursion",
			batches: [][]trace.Event{
				{enter(1, f, 0), enter(1, f, 10), exit(1, f, 20)},
				at(50), at(60), at(70),
				{sample(80, 40), exit(1, f, 100)},
			},
			bound: 50,
			want:  map[string]want{"f": {total: 100, calls: 2, samples: 1}},
		},
		{
			// The sample at 12 falls in a span that is resident when the
			// boundary passes it; the one at 40 in an invocation that
			// began behind the boundary's last step, is open when it
			// passes, and closed by the time anyone asks.
			name: "sample under a frame that was open when it settled",
			batches: [][]trace.Event{
				{enter(1, g, 10), sample(12, 40), exit(1, g, 14)},
				append([]trace.Event{enter(1, f, 30), sample(40, 41)}, at(50)...),
				at(60), at(70),
				{exit(1, f, 80)},
			},
			bound: 50,
			want: map[string]want{
				"f": {total: 50, calls: 1, samples: 1},
				"g": {total: 4, calls: 1, samples: 1},
			},
		},
		{
			// [0, 10] and [10, 20] touch and are one span of 20; [30, 30]
			// is a span of no length that still covers the sample at 30;
			// g's span ends, and a sample is stamped, exactly where the
			// boundary will stand: neither is behind it.
			name: "touching, zero-length, and exactly on the boundary",
			batches: [][]trace.Event{
				{enter(1, f, 0), exit(1, f, 10), enter(1, f, 10), exit(1, f, 20), enter(1, f, 30), sample(30, 40), exit(1, f, 30)},
				{enter(1, g, 40), sample(50, 41), exit(1, g, 50)},
				at(60), at(70),
				{sample(80, 42), enter(1, g, 80), exit(1, g, 90)},
			},
			bound: 50,
			want: map[string]want{
				"f": {total: 20, calls: 3, samples: 1},
				"g": {total: 20, calls: 2, samples: 2},
			},
		},
		{
			// Exits of invocations opened before the stream began are
			// dropped, folded or not; they are not late either.
			name: "mid-stream orphan exits",
			opts: parser.Options{MidStream: true},
			batches: [][]trace.Event{
				{exit(1, f, 5), enter(1, g, 10), sample(12, 40), exit(1, g, 20)},
				at(50), at(60), at(70),
				{exit(2, f, 75), enter(1, f, 80), exit(1, f, 90)},
			},
			bound: 50,
			want: map[string]want{
				"f": {total: 10, calls: 1},
				"g": {total: 10, calls: 1, samples: 1},
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			sym := trace.NewSymTab()
			for _, name := range []string{"f", "g", "tick"} {
				sym.Register(name)
			}
			p := newFoldPair(sym, c.opts)
			for i, batch := range c.batches {
				if i == len(c.batches)-1 {
					// The boundary stands where the case says it does: a late
					// probe just behind it is counted, one on it is not.
					probe := parser.NewBuilder(1, sym, c.opts)
					for _, b := range c.batches[:i] {
						if err := probe.Add(b); err != nil {
							t.Fatal(err)
						}
						probe.Fold()
					}
					if err := probe.Add([]trace.Event{sample(c.bound, 0), sample(c.bound-1, 0)}); err != nil {
						t.Fatal(err)
					}
					if probe.Late() != 1 {
						t.Fatalf("boundary is not at %d: samples at %d and %d count %d late", c.bound, c.bound, c.bound-1, probe.Late())
					}
				}
				p.add(t, batch)
				p.equal(t, fmt.Sprintf("snapshot after batch %d", i), (*parser.Builder).Snapshot)
			}
			if n := p.folded.Late(); n != 0 {
				t.Errorf("%d late events", n)
			}
			np, err := p.folded.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range c.want {
				fp, ok := np.Function(name)
				if !ok {
					t.Errorf("%s: not in the profile", name)
					continue
				}
				got := want{total: fp.TotalTime, calls: fp.Calls}
				if len(fp.Sensors) > 0 {
					got.samples = fp.Sensors[0].N
				}
				if got != w {
					t.Errorf("%s: %+v, want %+v", name, got, w)
				}
				if fp.TotalTime > np.Duration {
					t.Errorf("%s: TotalTime %v exceeds the trace's %v", name, fp.TotalTime, np.Duration)
				}
			}
			p.equal(t, "finish", (*parser.Builder).Finish)
		})
	}
}

// TestFoldLateEvents: events stamped behind the boundary are counted, the
// builder stays healthy, and no function is credited more time than the
// trace lasted — the late span keeps only what lies past its function's
// spilled history.
func TestFoldLateEvents(t *testing.T) {
	const f, tick = 0, 1
	sym := trace.NewSymTab()
	sym.Register("f")
	sym.Register("tick")
	b := parser.NewBuilder(1, sym, parser.Options{})
	feed := func(evs ...trace.Event) {
		t.Helper()
		if err := b.Add(evs); err != nil {
			t.Fatal(err)
		}
		b.Fold()
	}
	feed(enter(1, f, 0), exit(1, f, 40), sample(20, 40))
	for ts := time.Duration(50); ts <= 90; ts += 10 {
		feed(enter(tickLane, tick, ts), exit(tickLane, tick, ts))
	}
	if b.Late() != 0 || b.Resident() != 3 {
		t.Fatalf("before anything late: %d late, %d resident spans, want 0 and the last three ticks", b.Late(), b.Resident())
	}
	// [0, 40] is spilled. A second lane now reports f over [10, 60] and a
	// sample from 30: three events from behind the boundary at 70.
	feed(enter(2, f, 10), sample(30, 41), exit(2, f, 60), enter(tickLane, tick, 100), exit(tickLane, tick, 100))
	if b.Late() != 3 {
		t.Errorf("%d late events, want 3", b.Late())
	}
	np, err := b.Finish()
	if err != nil {
		t.Fatalf("late events poisoned the builder: %v", err)
	}
	fp, _ := np.Function("f")
	if fp.Calls != 2 || fp.TotalTime != 60 {
		t.Errorf("f: %d calls over %v, want 2 over 60ns: [0, 40] spilled plus the [40, 60] the late span adds", fp.Calls, fp.TotalTime)
	}
	if len(np.Samples[0]) != 2 || np.Samples[0][0].TS != 20 || np.Samples[0][1].TS != 30 {
		t.Errorf("series %+v, want both samples in time order", np.Samples[0])
	}
}

// TestFoldPlateau: 400 chunks through a folded builder. What it holds
// after every Fold is bounded by the spans of its last three batches and
// one per open invocation, and its heap at chunk 400 is what it was at
// chunk 100 plus what the samples in between cost.
func TestFoldPlateau(t *testing.T) {
	const chunks, perChunk = 400, 4096
	g := tracegen.New(tracegen.Config{Seed: 7, SampleEvery: 20 * time.Millisecond})
	b := parser.NewBuilder(1, g.Sym(), parser.Options{})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var (
		evs                 []trace.Event
		exits               [3]int // per batch, the last three
		open, samples       int
		heap100, samples100 uint64
	)
	for k := 1; k <= chunks; k++ {
		evs = g.Fill(evs[:0], perChunk)
		exits[k%3] = 0
		for i := range evs {
			switch evs[i].Kind {
			case trace.KindEnter:
				open++
			case trace.KindExit:
				open--
				exits[k%3]++
			case trace.KindSample:
				samples++
			}
		}
		if err := b.Add(evs); err != nil {
			t.Fatal(err)
		}
		b.Fold()
		if got, limit := b.Resident(), exits[0]+exits[1]+exits[2]+open; got > limit {
			t.Fatalf("after chunk %d: %d resident spans, more than the last three batches' %d and %d open invocations", k, got, limit-open, open)
		}
		if k == 100 {
			heap100, samples100 = heap(), uint64(samples)
		}
	}
	// A sample costs its 16 bytes in the series and 8 in the list of every
	// function that covers it, at most one per open invocation: 4 lanes,
	// 6 deep. Slices grow by doubling, hence twice that.
	grown := 2 * (uint64(samples) - samples100) * (16 + 8*4*6)
	if got, limit := heap(), heap100+heap100/10+grown; got > limit {
		t.Errorf("heap %d B at chunk %d, %d B at chunk 100: more than 10%% and %d samples' %d B apart", got, chunks, heap100, uint64(samples)-samples100, grown)
	}
	if b.Late() != 0 {
		t.Errorf("%d late events", b.Late())
	}
	runtime.KeepAlive(b)
}

// FuzzBuilderFold: arbitrary events cut into batches at arbitrary points
// never panic a folded builder, and whenever none of them was late it
// agrees with an unfolded one — on the profile, or on the error. Three
// bytes make an event: what and where, which function, and how far the
// clock moves first, or for a stale event how far behind the clock it is
// stamped.
func FuzzBuilderFold(f *testing.F) {
	f.Add([]byte{0x00, 0, 5, 0x04, 1, 5, 0x0a, 0, 3, 0x05, 1, 9, 0x01, 0, 7, 0x80, 0, 1, 0x83, 0, 1, 0x0a, 0, 2, 0x81, 0, 40})
	f.Add([]byte{0x00, 2, 1, 0x80, 2, 1, 0x81, 2, 1, 0x82, 0, 1, 0x83, 0, 1, 0x4a, 0, 90, 0x40, 2, 80, 0x41, 2, 1})
	f.Add([]byte{0x21, 1, 1, 0x81, 0, 9, 0x00, 1, 4, 0x82, 0, 9, 0x83, 0, 9, 0x84, 0, 9, 0x01, 1, 3})
	sym := trace.NewSymTab()
	for i := 0; i < 4; i++ {
		sym.Register(fmt.Sprintf("fn%d", i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := parser.Options{MidStream: len(data)%2 == 1}
		folded, plain := parser.NewBuilder(1, sym, opts), parser.NewBuilder(1, sym, opts)
		var clock time.Duration
		var batch []trace.Event
		flush := func() {
			_ = folded.Add(batch) // a poisoned builder keeps saying so
			folded.Fold()
			_ = plain.Add(batch)
			batch = batch[:0]
		}
		for ; len(data) >= 3; data = data[3:] {
			op, fid, dt := data[0], uint32(data[1]%4), time.Duration(data[2])
			ts := clock + dt
			if op&0x40 != 0 {
				ts = max(clock-dt, 0) // stale: stamped behind the clock
			}
			clock = max(clock, ts)
			e := trace.Event{TS: ts, Lane: uint32(op >> 2 & 3), FuncID: fid}
			switch op & 3 {
			case 0:
				e.Kind = trace.KindEnter
			case 1:
				e.Kind = trace.KindExit
			case 2:
				e.Kind, e.SensorID, e.ValueC = trace.KindSample, fid%2, float64(dt)
			case 3:
				e.Kind, e.Aux = trace.KindDrop, 1
			}
			batch = append(batch, e)
			if op&0x80 != 0 {
				flush()
			}
		}
		flush()
		if folded.Late() != 0 {
			if np, err := folded.Finish(); err == nil {
				for _, fp := range np.Functions {
					if fp.TotalTime > np.Duration {
						t.Fatalf("%s: TotalTime %v exceeds the trace's %v", fp.Name, fp.TotalTime, np.Duration)
					}
				}
			}
			return
		}
		for _, profile := range []func(*parser.Builder) (*parser.NodeProfile, error){(*parser.Builder).Snapshot, (*parser.Builder).Finish} {
			got, gerr := profile(folded)
			want, werr := profile(plain)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("folded error %v, unfolded %v", gerr, werr)
			}
			if gerr == nil && !reflect.DeepEqual(stripIntervals(got), stripIntervals(want)) {
				t.Fatalf("folded profile differs from unfolded:\n%+v\n%+v", got, want)
			}
		}
	})
}
