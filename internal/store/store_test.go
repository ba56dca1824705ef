package store_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tempest/internal/introspect"
	"tempest/internal/store"
)

// quietLogger keeps expected recovery warnings out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fakeClock is an injectable store clock for window/retention tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBatch(node uint32, seq uint64, wall time.Time, payload string) store.Batch {
	return store.Batch{
		Node:     node,
		Rank:     node - 1,
		Seq:      seq,
		WallNano: wall.UnixNano(),
		Payload:  []byte(payload),
	}
}

// replayAll drains a store's recovered state into slices, copying
// payloads (the callback contract says they alias internal buffers).
func replayAll(t *testing.T, s *store.Disk) (archive []byte, batches []store.Batch) {
	t.Helper()
	err := s.Replay(
		func(a []byte) error {
			archive = append([]byte(nil), a...)
			return nil
		},
		func(b store.Batch) error {
			b.Payload = append([]byte(nil), b.Payload...)
			batches = append(batches, b)
			return nil
		})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return archive, batches
}

func mustVerifyOK(t *testing.T, dir string) store.ShardReport {
	t.Helper()
	rep, err := store.VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if err := rep.Err(); err != nil {
		var sb strings.Builder
		rep.WriteText(&sb)
		t.Fatalf("verification failed: %v\n%s", err, sb.String())
	}
	if len(rep.Shards) != 1 {
		t.Fatalf("got %d shard reports, want 1", len(rep.Shards))
	}
	return rep.Shards[0]
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := store.Options{Now: clk.now, Logger: quietLogger()}

	d, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []store.Batch
	for i := 0; i < 20; i++ {
		b := testBatch(uint32(1+i%3), uint64(i/3), clk.t, fmt.Sprintf("payload-%02d", i))
		if i%5 == 0 {
			b.Flags = store.FlagBulk
		}
		if err := d.Append(b); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want = append(want, b)
		clk.advance(time.Second)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	sr := mustVerifyOK(t, dir)
	if sr.Batches != len(want) {
		t.Fatalf("verify counted %d batches, want %d", sr.Batches, len(want))
	}
	if sr.TornTailBytes != 0 {
		t.Fatalf("clean store reports %d torn-tail bytes", sr.TornTailBytes)
	}
	if sr.FinalChain == (store.Chain{}) {
		t.Fatal("final chain is zero after 20 commits")
	}

	d2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	archive, got := replayAll(t, d2)
	if archive != nil {
		t.Fatalf("unexpected archive without compaction: %d bytes", len(archive))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d batches differ from appended %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}

	// Verification is deterministic: a second pass lands on the same
	// final chain.
	if sr2 := mustVerifyOK(t, dir); sr2.FinalChain != sr.FinalChain {
		t.Fatalf("final chain changed between verifies: %s vs %s", sr2.FinalChain, sr.FinalChain)
	}
}

// soleSegment returns the path of the only .seg file in dir.
func soleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err %v)", segs, err)
	}
	return segs[0]
}

func writeStore(t *testing.T, dir string, n int) []store.Batch {
	t.Helper()
	clk := newFakeClock()
	d, err := store.Open(dir, store.Options{Now: clk.now, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	var want []store.Batch
	for i := 0; i < n; i++ {
		b := testBatch(1, uint64(i), clk.t, fmt.Sprintf("payload-%02d", i))
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestTornTailSalvage(t *testing.T) {
	dir := t.TempDir()
	want := writeStore(t, dir, 8)
	seg := soleSegment(t, dir)

	// SIGKILL mid-append: the last record is half on disk.
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	// Pre-recovery verification: torn tail reported, not a failure.
	sr := mustVerifyOK(t, dir)
	if sr.TornTailBytes == 0 {
		t.Fatal("verify missed the torn tail")
	}
	if sr.Batches != len(want)-1 {
		t.Fatalf("pre-recovery verify counted %d batches, want %d", sr.Batches, len(want)-1)
	}

	// Recovery truncates the tear; the intact prefix replays.
	d, err := store.Open(dir, store.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	_, got := replayAll(t, d)
	if !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatalf("salvaged %d batches, want the %d-batch prefix", len(got), len(want)-1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-recovery the store verifies clean, tail gone.
	sr = mustVerifyOK(t, dir)
	if sr.TornTailBytes != 0 {
		t.Fatalf("torn tail survived recovery: %d bytes", sr.TornTailBytes)
	}
}

func TestSingleByteCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	want := writeStore(t, dir, 8)
	seg := soleSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte somewhere in the middle of the record log (past the
	// header) and assert recovery yields a strict prefix: corrupted or
	// later data never replays as if intact.
	for _, off := range []int{60, len(data) / 2, len(data) - 10} {
		corrupted := append([]byte(nil), data...)
		corrupted[off] ^= 0x01
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(seg)), corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := store.Open(cdir, store.Options{Logger: quietLogger()})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		_, got := replayAll(t, d)
		d.Close()
		if len(got) >= len(want) {
			t.Fatalf("offset %d: corruption undetected: replayed %d of %d batches", off, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("offset %d: salvage is not a prefix (batch %d differs)", off, i)
			}
		}
		// After recovery the salvaged store verifies clean again.
		mustVerifyOK(t, cdir)
	}
}

// jsonCompactor is a deterministic test Compactor: the archive is a JSON
// tally of batches and payload bytes folded so far.
func jsonCompactor(prev []byte, batches []store.Batch) ([]byte, error) {
	var state struct{ Batches, Bytes int }
	if len(prev) > 0 {
		if err := json.Unmarshal(prev, &state); err != nil {
			return nil, err
		}
	}
	for _, b := range batches {
		state.Batches++
		state.Bytes += len(b.Payload)
	}
	return json.Marshal(state)
}

func TestRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := store.Options{
		Window:    time.Minute,
		Retention: 5 * time.Minute,
		Compact:   jsonCompactor,
		Now:       clk.now,
		Logger:    quietLogger(),
	}
	d, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Ten batches, one per 30s: segments roll every minute.
	for i := 0; i < 10; i++ {
		if err := d.Append(testBatch(1, uint64(i), clk.t, fmt.Sprintf("old-%02d", i))); err != nil {
			t.Fatal(err)
		}
		clk.advance(30 * time.Second)
	}
	// Jump past retention and keep appending: rolling compacts the old
	// prefix into a checkpoint.
	clk.advance(10 * time.Minute)
	var recent []store.Batch
	for i := 0; i < 3; i++ {
		b := testBatch(2, uint64(i), clk.t, fmt.Sprintf("new-%d", i))
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
		recent = append(recent, b)
		clk.advance(time.Second)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(ckpts) != 1 {
		t.Fatalf("got %d checkpoints, want 1", len(ckpts))
	}
	sr := mustVerifyOK(t, dir)
	if sr.Checkpoints != 1 || sr.ArchiveBytes == 0 {
		t.Fatalf("verify: checkpoints=%d archive_bytes=%d", sr.Checkpoints, sr.ArchiveBytes)
	}

	d2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	archive, got := replayAll(t, d2)
	var state struct{ Batches, Bytes int }
	if err := json.Unmarshal(archive, &state); err != nil {
		t.Fatalf("archive blob: %v", err)
	}
	if state.Batches != 10 {
		t.Fatalf("archive folded %d batches, want 10", state.Batches)
	}
	// Only the post-checkpoint batches replay raw.
	for i := range got {
		if string(got[i].Payload[:4]) == "old-" {
			t.Fatalf("compacted batch %q replayed raw", got[i].Payload)
		}
	}
	if len(got) != len(recent) || !reflect.DeepEqual(got, recent) {
		t.Fatalf("raw replay after compaction:\n got %+v\nwant %+v", got, recent)
	}
}

// failAfterWriter fails every write once n bytes have passed — the
// ENOSPC stand-in.
type failAfterWriter struct {
	w io.Writer
	n int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("injected: disk full")
	}
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, fmt.Errorf("injected: disk full")
	}
	f.n -= len(p)
	return f.w.Write(p)
}

func TestAppendFailurePoisonsButKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	budget := 400 // enough for the header and a few records
	opts := store.Options{
		Now:    clk.now,
		Logger: quietLogger(),
		WrapWriter: func(w io.Writer) io.Writer {
			fw := &failAfterWriter{w: w, n: budget}
			budget = 0 // only the first segment gets a budget; reopen tests don't
			return fw
		},
	}
	d, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var okCount int
	var appendErr error
	for i := 0; i < 50; i++ {
		err := d.Append(testBatch(1, uint64(i), clk.t, fmt.Sprintf("payload-%02d", i)))
		if err != nil {
			appendErr = err
			break
		}
		okCount++
	}
	if appendErr == nil {
		t.Fatal("injected disk-full never surfaced")
	}
	if okCount == 0 {
		t.Fatal("no append succeeded before the fault")
	}
	// Poisoned: everything after fails fast with the same error.
	if err := d.Append(testBatch(1, 99, clk.t, "after")); err == nil {
		t.Fatal("poisoned store accepted an append")
	}
	d.Close()

	// Every batch that was acked (Append returned nil) survives reopen.
	d2, err := store.Open(dir, store.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	_, got := replayAll(t, d2)
	if len(got) < okCount {
		t.Fatalf("recovered %d batches, but %d were acked", len(got), okCount)
	}
}

func TestCrashMidCompactionDebrisCleanup(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	opts := store.Options{
		Window:    time.Minute,
		Retention: 2 * time.Minute,
		Compact:   jsonCompactor,
		Now:       clk.now,
		Logger:    quietLogger(),
	}
	d, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := d.Append(testBatch(1, uint64(i), clk.t, fmt.Sprintf("old-%02d", i))); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Minute)
	}
	// Snapshot the raw files before compaction can run.
	preFiles := map[string][]byte{}
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		preFiles[ent.Name()] = data
	}
	clk.advance(10 * time.Minute)
	if err := d.Append(testBatch(2, 0, clk.t, "new")); err != nil { // roll → compaction
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(ckpts) != 1 {
		t.Fatalf("compaction did not run: %d checkpoints", len(ckpts))
	}

	// Simulate a crash between the checkpoint rename and the raw deletes:
	// resurrect one covered segment and drop in a half-written temp file.
	restored := false
	for name, data := range preFiles {
		if strings.HasSuffix(name, ".seg") {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			restored = true
			break
		}
	}
	if !restored {
		t.Fatal("no pre-compaction segment to resurrect")
	}
	if err := os.WriteFile(filepath.Join(dir, "000000099.ckpt.tmp"), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	archive, got := replayAll(t, d2)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(archive) == 0 {
		t.Fatal("archive lost after debris cleanup")
	}
	for _, b := range got {
		if strings.HasPrefix(string(b.Payload), "old-") {
			t.Fatalf("covered batch %q replayed after cleanup", b.Payload)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "000000099.ckpt.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp checkpoint debris survived recovery")
	}
	mustVerifyOK(t, dir)
}

func TestOpenShardsAndVerifyDir(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 3; i++ {
		s, err := store.Open(filepath.Join(root, store.ShardDirName(i)), store.Options{Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(store.Batch{Node: uint32(i + 1), Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := store.VerifyDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 3 {
		t.Fatalf("got %d shard reports, want 3", len(rep.Shards))
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if err := store.CheckDir(root); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyAgreesWithRecoveryOnTornHeader pins the offline audit to what
// recovery does with a final segment torn inside its header — a SIGKILL
// between roll's create and its header write. Both call it a crash, not
// tampering: VerifyDir passes with a note, Open removes the file without
// a recovery error and replays every batch, and the recovered store
// verifies clean.
func TestVerifyAgreesWithRecoveryOnTornHeader(t *testing.T) {
	for _, n := range []int{0, 5} {
		t.Run(fmt.Sprintf("%d-byte", n), func(t *testing.T) {
			dir := t.TempDir()
			want := writeStore(t, dir, 3)
			data, err := os.ReadFile(soleSegment(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			torn := filepath.Join(dir, "000000002.seg")
			if err := os.WriteFile(torn, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}

			sr := mustVerifyOK(t, dir)
			if len(sr.Notes) != 1 || sr.TornTailBytes != int64(n) || sr.Batches != len(want) {
				t.Fatalf("pre-recovery verify: notes %q, torn bytes %d, batches %d; want one note, %d, %d",
					sr.Notes, sr.TornTailBytes, sr.Batches, n, len(want))
			}

			m := store.NewMetrics(introspect.New())
			d, err := store.Open(dir, store.Options{Logger: quietLogger(), Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.RecoveryErrors.Value(); got != 0 {
				t.Fatalf("recovery counted %d errors for a crash", got)
			}
			_, got := replayAll(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %d batches, want all %d", len(got), len(want))
			}
			if _, err := os.Stat(torn); !os.IsNotExist(err) {
				t.Fatalf("torn-header segment survived recovery (stat err %v)", err)
			}
			if sr := mustVerifyOK(t, dir); len(sr.Notes) != 0 || sr.TornTailBytes != 0 {
				t.Fatalf("recovered store still has notes %q", sr.Notes)
			}
		})
	}
}

// TestVerifyAgreesWithRecoveryOnCorruptFinalHeader is the other side of
// that line: a final segment whose full-length header has a flipped magic
// or version byte is damage, not a crash. VerifyDir fails it, Open counts
// one recovery error and keeps the file for the operator, and the audit
// goes on failing until someone acts.
func TestVerifyAgreesWithRecoveryOnCorruptFinalHeader(t *testing.T) {
	for _, off := range []int{0, 4} { // magic, version
		t.Run(fmt.Sprintf("byte-%d", off), func(t *testing.T) {
			dir := t.TempDir()
			want := writeStore(t, dir, 3)
			data, err := os.ReadFile(soleSegment(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			data[off] ^= 0x01
			bad := filepath.Join(dir, "000000002.seg")
			if err := os.WriteFile(bad, data, 0o644); err != nil {
				t.Fatal(err)
			}

			verifyFails := func(when string) {
				t.Helper()
				rep, err := store.VerifyDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if sr := rep.Shards[0]; len(sr.Problems) != 1 || len(sr.Notes) != 0 {
					t.Fatalf("%s: problems %q, notes %q; want one problem, no note", when, sr.Problems, sr.Notes)
				}
			}
			verifyFails("before recovery")

			m := store.NewMetrics(introspect.New())
			d, err := store.Open(dir, store.Options{Logger: quietLogger(), Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.RecoveryErrors.Value(); got != 1 {
				t.Fatalf("recovery counted %d errors, want 1", got)
			}
			_, got := replayAll(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed %d batches, want the first segment's %d", len(got), len(want))
			}
			if _, err := os.Stat(bad); err != nil {
				t.Fatalf("recovery removed the corrupt segment: %v", err)
			}
			verifyFails("after recovery")
		})
	}
}

// crashWriter fails the write that crosses byte at of everything written
// through the store's writers, after letting the bytes before it through,
// and calls crash from inside that write — the moment the power went.
// Every later write fails too.
type crashWriter struct {
	w       io.Writer
	written *int
	at      int
	crash   func()
}

func (c *crashWriter) Write(p []byte) (int, error) {
	if *c.written > c.at {
		return 0, fmt.Errorf("injected: crashed")
	}
	if *c.written+len(p) <= c.at {
		*c.written += len(p)
		return c.w.Write(p)
	}
	n, _ := c.w.Write(p[:c.at-*c.written])
	*c.written = c.at + 1
	c.crash()
	return n, fmt.Errorf("injected: crash at byte %d", c.at)
}

// copyDir snapshots the files in src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreCrashPoints crashes append → roll → retention checkpoint →
// append at every byte it writes, and holds each crash image to one
// definition of recoverable: VerifyDir finds no problem, Open counts no
// recovery error, every acknowledged batch comes back in order and
// unaltered — folded into the archive or raw — and the recovered store
// verifies clean. The image is taken inside the failing write, so partial
// headers and half-written checkpoint temp files are in it. fsync, rename
// and remove boundaries need a file-operation seam and are not covered.
func TestStoreCrashPoints(t *testing.T) {
	// run drives the sequence with writes failing from byte at on (-1:
	// never), returning every batch it tried, how many Appends returned
	// nil before the crash, the crash image and the bytes written.
	run := func(at int) (tried []store.Batch, acked int, image string, written int) {
		dir := t.TempDir()
		clk := newFakeClock()
		d, err := store.Open(dir, store.Options{
			Window:    time.Minute,
			Retention: 2 * time.Minute,
			Compact:   jsonCompactor,
			Now:       clk.now,
			Logger:    quietLogger(),
			WrapWriter: func(w io.Writer) io.Writer {
				if at < 0 {
					return &crashWriter{w: w, written: &written, at: math.MaxInt}
				}
				return &crashWriter{w: w, written: &written, at: at, crash: func() { image = copyDir(t, dir) }}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i, step := range []time.Duration{0, time.Second, time.Minute, 3 * time.Minute, 0} {
			// 1 s: same segment; 1 min: roll; 3 min: roll, and both closed
			// segments fold into a checkpoint; 0: append after it.
			clk.advance(step)
			b := testBatch(1, uint64(i), clk.t, fmt.Sprintf("batch-%d", i))
			tried = append(tried, b)
			if err := d.Append(b); err != nil {
				break
			}
			if image == "" {
				acked++
			}
		}
		return tried, acked, image, written
	}

	_, acked, _, total := run(-1)
	if acked != 5 || total == 0 {
		t.Fatalf("clean run acked %d of 5 batches, wrote %d bytes", acked, total)
	}
	sawDebris, sawArchive := false, false
	for at := 0; at < total; at++ {
		tried, acked, image, _ := run(at)
		if image == "" {
			t.Fatalf("byte %d: no write crossed it", at)
		}
		if tmps, _ := filepath.Glob(filepath.Join(image, "*.ckpt.tmp")); len(tmps) > 0 {
			sawDebris = true
		}
		rep, err := store.VerifyDir(image)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("byte %d: crash image fails verification: %v", at, err)
		}
		m := store.NewMetrics(introspect.New())
		d, err := store.Open(image, store.Options{Logger: quietLogger(), Metrics: m})
		if err != nil {
			t.Fatalf("byte %d: Open: %v", at, err)
		}
		if got := m.RecoveryErrors.Value(); got != 0 {
			t.Fatalf("byte %d: recovery counted %d errors", at, got)
		}
		archive, raw := replayAll(t, d)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		var folded struct{ Batches, Bytes int }
		if archive != nil {
			sawArchive = true
			if err := json.Unmarshal(archive, &folded); err != nil {
				t.Fatalf("byte %d: archive: %v", at, err)
			}
		}
		bytes := 0
		for _, b := range tried[:min(folded.Batches, len(tried))] {
			bytes += len(b.Payload)
		}
		if folded.Batches+len(raw) > len(tried) || bytes != folded.Bytes {
			t.Fatalf("byte %d: archive %+v and %d raw batches do not fit the %d tried", at, folded, len(raw), len(tried))
		}
		if len(raw) > 0 && !reflect.DeepEqual(raw, tried[folded.Batches:folded.Batches+len(raw)]) {
			t.Fatalf("byte %d: raw replay is not the batches after the archived ones, in order", at)
		}
		if folded.Batches+len(raw) < acked {
			t.Fatalf("byte %d: recovered %d batches, %d were acked", at, folded.Batches+len(raw), acked)
		}
		if sr := mustVerifyOK(t, image); len(sr.Notes) != 0 {
			t.Fatalf("byte %d: recovered store still has notes %q", at, sr.Notes)
		}
	}
	if !sawDebris || !sawArchive {
		t.Fatalf("%d crash points never hit the checkpoint (temp debris %v, archive %v)", total, sawDebris, sawArchive)
	}
}
