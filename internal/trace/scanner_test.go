package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"tempest/internal/vclock"
)

// drainScanner accumulates every batch of a scanner, copying (the
// batches are reused between Next calls).
func drainScanner(t *testing.T, sc *Scanner) []Event {
	t.Helper()
	var all []Event
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		all = append(all, batch...)
	}
}

func TestScannerV1MatchesReadTrace(t *testing.T) {
	orig := sampleTrace(t)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sc.NodeID() != orig.NodeID || sc.Rank() != orig.Rank || sc.Version() != 1 {
		t.Errorf("header: node %d rank %d v%d", sc.NodeID(), sc.Rank(), sc.Version())
	}
	if sc.DeclaredEvents() != uint64(len(orig.Events)) {
		t.Errorf("declared = %d, want %d", sc.DeclaredEvents(), len(orig.Events))
	}
	got := drainScanner(t, sc)
	if !reflect.DeepEqual(got, orig.Events) {
		t.Errorf("events differ:\n got %+v\nwant %+v", got, orig.Events)
	}
	if !reflect.DeepEqual(sc.Sym().Names(), orig.Sym.Names()) {
		t.Errorf("symbols differ: %v vs %v", sc.Sym().Names(), orig.Sym.Names())
	}
	if sc.Truncated() {
		t.Error("clean v1 stream reported truncated")
	}
	if sc.decoded != uint64(len(orig.Events)) {
		t.Errorf("Events() = %d", sc.decoded)
	}
}

func TestScannerV1BatchesBounded(t *testing.T) {
	// A trace longer than one batch must arrive in several bounded
	// batches, in order.
	clk := vclock.NewVirtualClock()
	tr, _ := NewTracer(Config{Clock: clk, LaneBufferCap: 1 << 20})
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	const calls = scanBatchSize + 100 // > one batch of events
	for i := 0; i < calls; i++ {
		clk.Advance(time.Microsecond)
		lane.Enter(f)
		_ = lane.Exit(f)
	}
	trc := tr.Finish()
	var buf bytes.Buffer
	if err := trc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var batches, total int
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > scanBatchSize {
			t.Fatalf("batch of %d events exceeds bound %d", len(batch), scanBatchSize)
		}
		batches++
		total += len(batch)
	}
	if total != len(trc.Events) {
		t.Errorf("total = %d, want %d", total, len(trc.Events))
	}
	if batches < 2 {
		t.Errorf("expected multiple batches, got %d", batches)
	}
}

func TestScannerV1StrictTruncation(t *testing.T) {
	orig := sampleTrace(t)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 2 {
		sc, err := NewScanner(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // header rejection is a pass
		}
		ok := true
		for ok {
			_, nerr := sc.Next()
			if nerr == io.EOF {
				t.Errorf("prefix of %d bytes scanned to clean EOF", cut)
				ok = false
			} else if nerr != nil {
				ok = false // strict error is the expected outcome
			}
		}
	}
}

func TestScannerV2SegmentsAndSalvage(t *testing.T) {
	orig := sampleTrace(t)
	var buf bytes.Buffer
	if err := orig.WriteSegmented(&buf, 2); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Clean stream: batches concatenate to the same multiset ReadTrace
	// returns (ReadTrace re-sorts; scanner batches are per segment).
	sc, err := NewScanner(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := drainScanner(t, sc)
	sortEvents(got)
	want, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Events) {
		t.Errorf("scanner events differ from ReadTrace:\n got %+v\nwant %+v", got, want.Events)
	}
	if sc.Truncated() {
		t.Error("clean v2 stream reported truncated")
	}

	// Torn tails: every cut must scan without error to some salvaged
	// prefix, agreeing with ReadTrace on the same bytes.
	for cut := 10; cut < len(raw); cut += 3 {
		sc, err := NewScanner(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		got := drainScanner(t, sc)
		sortEvents(got)
		want, err := ReadTrace(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: ReadTrace: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want.Events) {
			t.Errorf("cut %d: salvage mismatch: %d vs %d events", cut, len(got), len(want.Events))
		}
		if sc.Truncated() != want.Truncated {
			t.Errorf("cut %d: truncated = %v, ReadTrace says %v", cut, sc.Truncated(), want.Truncated)
		}
	}
}

func TestScannerV2ChecksumCorruption(t *testing.T) {
	orig := sampleTrace(t)
	var buf bytes.Buffer
	if err := orig.WriteSegmented(&buf, 2); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload byte near the end; the scanner must stop at the
	// corrupt segment, not panic or accept it.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-2] ^= 0xFF
	sc, err := NewScanner(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	_ = drainScanner(t, sc)
	if !sc.Truncated() {
		t.Error("corrupt segment not reported as truncation")
	}
}

func TestScannerBatchReusedBetweenCalls(t *testing.T) {
	// The documented contract: a batch is only valid until the next Next
	// call. Verify the backing array really is reused so downstream code
	// cannot silently rely on retention.
	clk := vclock.NewVirtualClock()
	tr, _ := NewTracer(Config{Clock: clk, LaneBufferCap: 1 << 20})
	lane := tr.NewLane()
	f := tr.RegisterFunc("f")
	for i := 0; i < 10; i++ {
		clk.Advance(time.Millisecond)
		lane.Enter(f)
		_ = lane.Exit(f)
	}
	var buf bytes.Buffer
	if err := tr.Finish().WriteSegmented(&buf, 4); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(second) == 0 {
		t.Fatalf("expected two non-empty batches, got %d and %d events", len(first), len(second))
	}
	if &first[0] != &second[0] {
		t.Error("batch backing array not reused — streaming reads would allocate per segment")
	}
}

func TestScannerResetRescansNewStream(t *testing.T) {
	// Reset must make the scanner equivalent to a fresh NewScanner on the
	// new stream: header re-read, fresh symbol table, counters cleared.
	orig := sampleTrace(t)
	var v1, v2 bytes.Buffer
	if err := orig.Write(&v1); err != nil {
		t.Fatal(err)
	}
	if err := orig.WriteSegmented(&v2, 2); err != nil {
		t.Fatal(err)
	}

	sc, err := NewScanner(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	first := append([]Event(nil), drainScanner(t, sc)...)
	firstSym := sc.Sym()

	if err := sc.Reset(bytes.NewReader(v2.Bytes())); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if sc.Version() != 2 {
		t.Errorf("after Reset onto v2 stream, Version() = %d", sc.Version())
	}
	if sc.decoded != 0 {
		t.Errorf("Events() = %d after Reset, want 0", sc.decoded)
	}
	second := drainScanner(t, sc)
	sortEvents(second)
	want, err := ReadTrace(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want.Events) {
		t.Errorf("rescan events differ:\n got %+v\nwant %+v", second, want.Events)
	}
	// The first stream's symbol table must survive the Reset: holders of
	// the old scan's results keep resolving against it.
	if !reflect.DeepEqual(firstSym.Names(), orig.Sym.Names()) {
		t.Errorf("old SymTab mutated by Reset: %v", firstSym.Names())
	}
	if sc.Sym() == firstSym {
		t.Error("Reset reused the previous stream's SymTab")
	}
	sortEvents(first)
	if !reflect.DeepEqual(first, orig.Events) {
		t.Errorf("first scan corrupted by Reset")
	}
}

func TestScannerResetAfterHeaderError(t *testing.T) {
	orig := sampleTrace(t)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	drainScanner(t, sc)

	// A Reset onto garbage fails and poisons the scanner...
	if err := sc.Reset(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("Reset accepted a bogus header")
	}
	if _, err := sc.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next after failed Reset = %v, want a persistent error", err)
	}
	// ...until the next successful Reset revives it.
	if err := sc.Reset(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("recovery Reset: %v", err)
	}
	got := drainScanner(t, sc)
	if !reflect.DeepEqual(got, orig.Events) {
		t.Error("scan after recovery Reset differs")
	}
}

// benchScannerTrace builds a multi-segment trace for the Reset benchmark.
func benchScannerTrace(b *testing.B) []byte {
	b.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := NewTracer(Config{Clock: clk, NodeID: 7, LaneBufferCap: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	lane := tr.NewLane()
	f := tr.RegisterFunc("bench_fn")
	for i := 0; i < 4096; i++ {
		clk.Advance(time.Microsecond)
		lane.Enter(f)
		tr.Sample(0, 40+float64(i%10))
		_ = lane.Exit(f)
	}
	var buf bytes.Buffer
	if err := tr.Finish().WriteSegmented(&buf, 512); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkScannerPerStream compares the per-stream setup cost of a
// fresh NewScanner against Reset on a retained one — the difference is
// the batch/payload buffers Reset keeps (satellite: collector bulk
// ingest rescans per connection).
func BenchmarkScannerPerStream(b *testing.B) {
	raw := benchScannerTrace(b)
	scan := func(b *testing.B, sc *Scanner) {
		for {
			_, err := sc.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		r := bytes.NewReader(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			sc, err := NewScanner(r)
			if err != nil {
				b.Fatal(err)
			}
			scan(b, sc)
		}
	})
	b.Run("reset", func(b *testing.B) {
		r := bytes.NewReader(raw)
		sc, err := NewScanner(r)
		if err != nil {
			b.Fatal(err)
		}
		scan(b, sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(raw)
			if err := sc.Reset(r); err != nil {
				b.Fatal(err)
			}
			scan(b, sc)
		}
	})
}
