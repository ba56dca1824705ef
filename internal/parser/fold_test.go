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

// TestSnapshotRangeTelescopes: marks cut at arbitrary batch boundaries
// of a folded builder partition its profile. Per function, TotalTime,
// Calls and every sensor's N summed over consecutive ranges are the
// all-time Snapshot's exactly and Max is the largest of the ranges'; a
// range of everything is Snapshot itself; and on a stream whose batches
// are in order, the range from the origin to a mark is, at any later
// moment, the Snapshot taken when the mark was cut — whether Fold sealed
// the mark or the query had to.
func TestSnapshotRangeTelescopes(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for disorder, name := range disorderNames {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := tracegen.New(tracegen.Config{Seed: seed, SampleEvery: 200 * time.Microsecond})
				b := parser.NewBuilder(1, g.Sym(), parser.Options{})
				var marks []*parser.Mark
				var then []*parser.NodeProfile // Snapshot when each mark was cut
				for _, batch := range cutBatches(rng, g.Fill(nil, 40_000), 1024, disorder) {
					if err := b.Add(batch); err != nil {
						t.Fatal(err)
					}
					b.Fold()
					if rng.Intn(4) == 0 {
						np, err := b.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						marks, then = append(marks, b.Mark()), append(then, np)
					}
				}
				if len(marks) < 3 {
					t.Fatalf("%d marks: the case tests nothing", len(marks))
				}
				all, err := b.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if whole, err := b.SnapshotRange(nil, nil); err != nil || !reflect.DeepEqual(whole, all) {
					t.Fatalf("SnapshotRange(nil, nil) is not Snapshot (%v)", err)
				}
				type sum struct {
					total time.Duration
					calls int64
					n     []int
					max   []float64
				}
				sums := map[string]*sum{}
				bounds := append(append([]*parser.Mark{nil}, marks...), nil)
				for i := 0; i+1 < len(bounds); i++ {
					np, err := b.SnapshotRange(bounds[i], bounds[i+1])
					if err != nil {
						t.Fatal(err)
					}
					for _, fp := range np.Functions {
						s := sums[fp.Name]
						if s == nil {
							s = &sum{n: make([]int, len(fp.Sensors)), max: make([]float64, len(fp.Sensors))}
							sums[fp.Name] = s
						}
						// A lane that reports, after the mark, an exit stamped
						// before it takes back what the mark charged the open
						// invocation: only batches in order keep ranges positive.
						if (fp.TotalTime < 0 && disorder != skewed) || fp.Calls < 0 || fp.Intervals != nil {
							t.Fatalf("range %d: %+v", i, fp)
						}
						s.total, s.calls = s.total+fp.TotalTime, s.calls+fp.Calls
						for sid, st := range fp.Sensors {
							if st.N > 0 && (s.n[sid] == 0 || st.Max > s.max[sid]) {
								s.max[sid] = st.Max
							}
							s.n[sid] += st.N
						}
					}
				}
				for _, fp := range all.Functions {
					s := sums[fp.Name]
					if s == nil || s.total != fp.TotalTime || s.calls != fp.Calls {
						t.Fatalf("%s: ranges sum to %+v, Snapshot has %v in %d calls", fp.Name, s, fp.TotalTime, fp.Calls)
					}
					for sid, st := range fp.Sensors {
						if s.n[sid] != st.N || (st.N > 0 && s.max[sid] != st.Max) {
							t.Fatalf("%s sensor %d: ranges hold %d samples, max %v; Snapshot %d, max %v", fp.Name, sid, s.n[sid], s.max[sid], st.N, st.Max)
						}
					}
				}
				if len(sums) != len(all.Functions) {
					t.Fatalf("ranges name %d functions, Snapshot %d", len(sums), len(all.Functions))
				}
				if disorder == skewed {
					return // a batch reaches behind the mark before it
				}
				for i, m := range marks {
					np, err := b.SnapshotRange(nil, m)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(np, stripIntervals(then[i])) {
						t.Fatalf("mark %d at %v: the range up to it is not the Snapshot taken then", i, m.T)
					}
				}
			})
		}
	}
}

// TestSnapshotRangeCostsWhatItHolds: what a range between two sealed marks
// allocates does not grow with the stream that follows it — the samples
// outside it are not copied — which is what keeps a compaction pass over
// many buckets linear in its samples.
func TestSnapshotRangeCostsWhatItHolds(t *testing.T) {
	g := tracegen.New(tracegen.Config{Seed: 3, SampleEvery: 200 * time.Microsecond})
	b := parser.NewBuilder(1, g.Sym(), parser.Options{})
	var evs []trace.Event
	feed := func(chunks int) {
		for k := 0; k < chunks; k++ {
			evs = g.Fill(evs[:0], 4096)
			if err := b.Add(evs); err != nil {
				t.Fatal(err)
			}
			b.Fold()
		}
	}
	cost := func(lo, hi *parser.Mark) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := b.SnapshotRange(lo, hi); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	feed(4)
	lo := b.Mark()
	feed(4)
	hi := b.Mark()
	feed(4) // the boundary passes hi
	early := cost(lo, hi)
	feed(160)
	late, all := cost(lo, hi), cost(nil, nil)
	t.Logf("%d B after 12 chunks, %d B after 172; everything %d B", early, late, all)
	if late > early+early/4 || late > all/4 {
		t.Errorf("the same range allocates %d B after 12 chunks and %d B after 172, a snapshot of everything %d B", early, late, all)
	}
}

// TestSnapshotRangeClipsOpenInvocation: f is open from 0 to 100 and a
// mark is cut at 50. Each side of the mark is charged 50, the call goes
// to the side it was entered on, and each side summarises the sample
// stamped on it — asked before Fold has sealed the mark and after.
func TestSnapshotRangeClipsOpenInvocation(t *testing.T) {
	const f, tick = 0, 1
	sym := trace.NewSymTab()
	sym.Register("f")
	sym.Register("tick")
	var b *parser.Builder
	feed := func(evs ...trace.Event) {
		t.Helper()
		if err := b.Add(evs); err != nil {
			t.Fatal(err)
		}
		b.Fold()
	}
	check := func(when string, lo, hi *parser.Mark, calls int64, value float64) {
		t.Helper()
		np, err := b.SnapshotRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := np.Function("f")
		if !ok || fp.TotalTime != 50 || fp.Calls != calls || fp.Sensors[0].N != 1 || fp.Sensors[0].Max != value || !fp.Significant {
			t.Errorf("%s: f is %+v, want 50ns, %d calls and the one sample of %v", when, fp, calls, value)
		}
		if len(np.Samples[0]) != 1 || np.Samples[0][0].Value != value {
			t.Errorf("%s: series %+v, want the one sample of %v", when, np.Samples[0], value)
		}
	}
	// A second sensor, read every 10 ns on each side of the mark, is
	// what the significance rule takes the sampling interval from.
	probe := func(ts time.Duration) trace.Event {
		return trace.Event{Kind: trace.KindSample, TS: ts, SensorID: 1, ValueC: 30}
	}
	b = parser.NewBuilder(1, sym, parser.Options{Unit: parser.Celsius})
	feed(enter(1, f, 0), probe(30), sample(40, 40), probe(40), enter(tickLane, tick, 50), exit(tickLane, tick, 50))
	m := b.Mark()
	check("head, unsealed", nil, m, 1, 40)
	feed(sample(60, 60), probe(60), probe(70), exit(1, f, 100))
	check("before the mark, unsealed", nil, m, 1, 40)
	check("after the mark, unsealed", m, nil, 0, 60)
	for ts := time.Duration(110); ts <= 140; ts += 10 {
		feed(enter(tickLane, tick, ts), exit(tickLane, tick, ts))
	}
	if b.Resident() > 3 {
		t.Fatalf("%d resident spans: the boundary has not passed the mark", b.Resident())
	}
	check("before the mark, sealed", nil, m, 1, 40)
	check("after the mark, sealed", m, nil, 0, 60)
	if np, err := b.SnapshotRange(m, m); err != nil || len(np.Functions) != 0 {
		t.Errorf("an empty range: %+v, %v", np, err)
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
// stamped. The first batch whose last event says so is followed by a mark
// on both builders: the two ranges it cuts are the same on both — Fold seals
// the one, the query the other — and add up to the whole.
func FuzzBuilderFold(f *testing.F) {
	f.Add([]byte{0x00, 1, 5, 0x0a, 0, 3, 0xa0, 2, 4, 0x0a, 1, 6, 0x81, 2, 9, 0x80, 0, 30, 0x81, 0, 1, 0x82, 1, 40, 0x83, 0, 1, 0x01, 1, 2})
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
		var foldedMark, plainMark *parser.Mark
		flush := func(mark bool) {
			_ = folded.Add(batch) // a poisoned builder keeps saying so
			folded.Fold()
			_ = plain.Add(batch)
			if mark && foldedMark == nil {
				foldedMark, plainMark = folded.Mark(), plain.Mark()
			}
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
				flush(op&0x20 != 0)
			}
		}
		flush(false)
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
		if all, err := folded.Snapshot(); err == nil {
			if whole, _ := folded.SnapshotRange(nil, nil); !reflect.DeepEqual(whole, all) {
				t.Fatalf("SnapshotRange(nil, nil) is not Snapshot:\n%+v\n%+v", whole, all)
			}
			if foldedMark != nil {
				sum := map[string]parser.FuncProfile{}
				for _, r := range [2][4]*parser.Mark{{nil, foldedMark, nil, plainMark}, {foldedMark, nil, plainMark, nil}} {
					got, _ := folded.SnapshotRange(r[0], r[1])
					want, _ := plain.SnapshotRange(r[2], r[3])
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("a range of the folded builder differs from the unfolded one's:\n%+v\n%+v", got, want)
					}
					for _, fp := range got.Functions {
						s := sum[fp.Name]
						s.TotalTime, s.Calls = s.TotalTime+fp.TotalTime, s.Calls+fp.Calls
						s.Sensors = append(s.Sensors, fp.Sensors...)
						sum[fp.Name] = s
					}
				}
				for _, fp := range all.Functions {
					s, n := sum[fp.Name], 0
					for _, st := range s.Sensors {
						n += st.N
					}
					for _, st := range fp.Sensors {
						n -= st.N
					}
					if s.TotalTime != fp.TotalTime || s.Calls != fp.Calls || n != 0 {
						t.Fatalf("%s: the two ranges sum to %v in %d calls and are %d samples off; Snapshot has %v in %d", fp.Name, s.TotalTime, s.Calls, n, fp.TotalTime, fp.Calls)
					}
				}
			}
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
