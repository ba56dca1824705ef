package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"tempest/internal/vclock"
)

// segFixture builds a deterministic three-phase trace and serialises it
// segmented with the given batch size, returning the trace and the bytes.
func segFixture(t *testing.T, batch int) (*Trace, []byte) {
	t.Helper()
	clk := vclock.NewVirtualClock()
	tr, err := NewTracer(Config{Clock: clk, NodeID: 3})
	if err != nil {
		t.Fatal(err)
	}
	lane := tr.NewLane()
	for i := 0; i < 10; i++ {
		clk.Advance(time.Millisecond)
		fidName := "phase_a"
		if i >= 5 {
			fidName = "phase_b"
		}
		fid := tr.RegisterFunc(fidName)
		lane.Enter(fid)
		clk.Advance(time.Millisecond)
		tr.Sample(0, 40+float64(i))
		tr.Marker("tick")
		if err := lane.Exit(fid); err != nil {
			t.Fatal(err)
		}
	}
	full := tr.Finish()
	full.Rank = 1
	var buf bytes.Buffer
	if err := full.WriteSegmented(&buf, batch); err != nil {
		t.Fatal(err)
	}
	return full, buf.Bytes()
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSegmentedRoundTrip(t *testing.T) {
	for _, batch := range []int{0, 1, 7, 1000} {
		full, raw := segFixture(t, batch)
		got, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if got.Truncated {
			t.Fatalf("batch %d: intact stream marked truncated", batch)
		}
		if got.NodeID != 3 || got.Rank != 1 {
			t.Fatalf("batch %d: identity %d/%d", batch, got.NodeID, got.Rank)
		}
		if !sameEvents(got.Events, full.Events) {
			t.Fatalf("batch %d: events differ: %d vs %d", batch, len(got.Events), len(full.Events))
		}
		if got.Sym.Len() != full.Sym.Len() {
			t.Fatalf("batch %d: symbols %d vs %d", batch, got.Sym.Len(), full.Sym.Len())
		}
	}
}

func TestSegmentedDeterministicBytes(t *testing.T) {
	_, a := segFixture(t, 7)
	_, b := segFixture(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs must serialise byte-identically")
	}
}

// segmentBoundaries returns the byte offsets where each segment ends
// (the first is the header end).
func segmentBoundaries(t *testing.T, raw []byte) []int {
	t.Helper()
	br := bytes.NewReader(raw)
	var magic uint32
	var version uint16
	binary.Read(br, binary.LittleEndian, &magic)
	binary.Read(br, binary.LittleEndian, &version)
	binary.ReadUvarint(br)
	binary.ReadUvarint(br)
	offs := []int{int(br.Size()) - br.Len()}
	for br.Len() > 0 {
		var hdr [9]byte
		if _, err := br.Read(hdr[:]); err != nil {
			t.Fatal(err)
		}
		plen := int(binary.LittleEndian.Uint32(hdr[1:5]))
		br.Seek(int64(plen), 1)
		offs = append(offs, int(br.Size())-br.Len())
	}
	return offs
}

// TestSegmentedSalvageAtEverySegmentBoundary cuts the stream exactly at
// each segment end: recovery must yield all events of the preceding
// segments with no truncation flag ambiguity (clean cut at a boundary is
// indistinguishable from a short run; both parse).
func TestSegmentedSalvageAtEverySegmentBoundary(t *testing.T) {
	full, raw := segFixture(t, 5)
	offs := segmentBoundaries(t, raw)
	var lastCount int
	for i, off := range offs {
		got, err := ReadTrace(bytes.NewReader(raw[:off]))
		if err != nil {
			t.Fatalf("cut at boundary %d (byte %d): %v", i, off, err)
		}
		if got.Truncated {
			t.Fatalf("cut at boundary %d: clean boundary cut flagged truncated", i)
		}
		if len(got.Events) < lastCount {
			t.Fatalf("cut at boundary %d: salvaged %d events, less than previous %d", i, len(got.Events), lastCount)
		}
		lastCount = len(got.Events)
	}
	if lastCount != len(full.Events) {
		t.Fatalf("full-length cut salvaged %d of %d events", lastCount, len(full.Events))
	}
}

// TestSegmentedSalvageAtEveryByte cuts the stream at every single byte
// offset past the header: ReadTrace must never fail, and must salvage
// exactly the events of the fully intact prefix segments.
func TestSegmentedSalvageAtEveryByte(t *testing.T) {
	full, raw := segFixture(t, 5)
	offs := segmentBoundaries(t, raw)
	headerEnd := offs[0]

	// eventsByPrefix[i] = events contained in the first i segments.
	wantAt := func(cut int) int {
		n := 0
		for i := 1; i < len(offs); i++ {
			if offs[i] <= cut {
				// Segment i-1 fully intact; count its events by parsing
				// the delta between salvages — instead, recompute lazily.
				n = i
			}
		}
		got, err := ReadTrace(bytes.NewReader(raw[:offs[n]]))
		if err != nil {
			t.Fatalf("reference parse at boundary %d: %v", n, err)
		}
		return len(got.Events)
	}

	for cut := headerEnd; cut <= len(raw); cut++ {
		got, err := ReadTrace(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut at byte %d: unexpected error %v", cut, err)
		}
		if want := wantAt(cut); len(got.Events) != want {
			t.Fatalf("cut at byte %d: salvaged %d events, want %d", cut, len(got.Events), want)
		}
		atBoundary := false
		for _, off := range offs {
			if cut == off {
				atBoundary = true
			}
		}
		if atBoundary && got.Truncated {
			t.Fatalf("cut at byte %d: boundary cut flagged truncated", cut)
		}
		if !atBoundary && !got.Truncated {
			t.Fatalf("cut at byte %d: mid-segment cut not flagged truncated", cut)
		}
	}
	_ = full
}

// TestSegmentedSalvageIsUsablePrefix verifies the salvage produces the
// exact event prefix, not a reordered or lossy set.
func TestSegmentedSalvageIsUsablePrefix(t *testing.T) {
	full, raw := segFixture(t, 5)
	offs := segmentBoundaries(t, raw)
	// Cut mid-way into the final segment.
	cut := offs[len(offs)-2] + (offs[len(offs)-1]-offs[len(offs)-2])/2
	got, err := ReadTrace(bytes.NewReader(raw[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Fatal("mid-segment cut should be flagged")
	}
	if len(got.Events) == 0 || len(got.Events) >= len(full.Events) {
		t.Fatalf("salvaged %d of %d events", len(got.Events), len(full.Events))
	}
	if !sameEvents(got.Events, full.Events[:len(got.Events)]) {
		t.Fatal("salvaged events are not the exact prefix")
	}
}

func TestSegmentedChecksumMismatchStopsSalvage(t *testing.T) {
	_, raw := segFixture(t, 5)
	offs := segmentBoundaries(t, raw)
	// Flip a payload byte inside the third segment.
	corrupt := append([]byte(nil), raw...)
	corrupt[offs[2]+9+2] ^= 0xFF
	got, err := ReadTrace(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Fatal("corrupt segment must flag truncation")
	}
	want, _ := ReadTrace(bytes.NewReader(raw[:offs[2]]))
	if len(got.Events) != len(want.Events) {
		t.Fatalf("salvaged %d events, want the %d before corruption", len(got.Events), len(want.Events))
	}
}

func TestSegmentedTruncatedHeaderStillBadFormat(t *testing.T) {
	_, raw := segFixture(t, 5)
	for cut := 0; cut < 6; cut++ { // inside magic/version
		if _, err := ReadTrace(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("cut at %d: want ErrBadFormat, got %v", cut, err)
		}
	}
}

func TestIncrementalWriterAcrossDrains(t *testing.T) {
	clk := vclock.NewVirtualClock()
	tr, err := NewTracer(Config{Clock: clk, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := NewWriter(&out, tr.NodeID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lane := tr.NewLane()
	total := 0
	for flush := 0; flush < 4; flush++ {
		fid := tr.RegisterFunc("fn" + string(rune('a'+flush)))
		clk.Advance(time.Millisecond)
		lane.Enter(fid)
		clk.Advance(time.Millisecond)
		tr.Sample(0, 50)
		if err := lane.Exit(fid); err != nil {
			t.Fatal(err)
		}
		ev, sym := tr.Drain()
		total += len(ev)
		if err := w.Flush(ev, sym); err != nil {
			t.Fatal(err)
		}
	}
	if ev, _ := tr.Drain(); len(ev) != 0 {
		t.Fatalf("drain after drain returned %d events", len(ev))
	}
	if w.Events() != uint64(total) {
		t.Fatalf("writer events = %d, want %d", w.Events(), total)
	}
	got, err := ReadTrace(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated || len(got.Events) != total {
		t.Fatalf("reread: truncated=%v events=%d want %d", got.Truncated, len(got.Events), total)
	}
	if got.Sym.Len() != tr.SymTab().Len() {
		t.Fatalf("symbols %d, want %d", got.Sym.Len(), tr.SymTab().Len())
	}
}

func TestWriterPoisonedAfterError(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a failing writer mid-stream.
	w.w = failWriter{}
	sym := NewSymTab()
	sym.Register("f")
	ev := []Event{{TS: 1, Kind: KindEnter, FuncID: 0}}
	if err := w.Flush(ev, sym); err == nil {
		t.Fatal("flush over failing writer should error")
	}
	if err := w.Flush(nil, nil); err == nil {
		t.Fatal("poisoned writer must keep failing")
	}
	if w.err == nil {
		t.Fatal("Err should report the poison")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }
