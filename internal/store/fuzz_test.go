package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tempest/internal/introspect"
	"tempest/internal/store"
)

// canonicalHeaderLen is the encoded segment header size for index 1:
// magic (4) + version (2) + index uvarint (1) + chain start (32).
const canonicalHeaderLen = 39

// buildCanonicalStore writes a known-good single-segment store and
// returns its raw bytes plus the batches it holds.
func buildCanonicalStore(tb testing.TB) ([]byte, []store.Batch) {
	tb.Helper()
	dir := tb.TempDir()
	clk := newFakeClock()
	d, err := store.Open(dir, store.Options{Now: clk.now, Logger: quietLogger()})
	if err != nil {
		tb.Fatal(err)
	}
	var batches []store.Batch
	for i := 0; i < 12; i++ {
		b := testBatch(uint32(1+i%2), uint64(i/2), clk.t, fmt.Sprintf("payload-%02d", i))
		if err := d.Append(b); err != nil {
			tb.Fatal(err)
		}
		batches = append(batches, b)
		clk.advance(time.Second)
	}
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		tb.Fatalf("want one canonical segment, got %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return data, batches
}

// FuzzStoreRecovery drives the crash-recovery contract:
//
//  1. arbitrary bytes presented as a segment or checkpoint never panic
//     Open, Replay or Verify;
//  2. flipping any single byte of a committed store is detected — the
//     recovered batches are a strict prefix of the originals, never
//     altered or reordered data (CRC catches in-record damage, the hash
//     chain catches splices);
//  3. the salvaged prefix re-verifies cleanly after recovery truncates
//     the damage (when the segment header itself survived);
//  4. VerifyDir before Open fails exactly when Open counts a recovery
//     error: the audit and recovery agree on what a crash is.
func FuzzStoreRecovery(f *testing.F) {
	canonical, want := buildCanonicalStore(f)
	f.Add([]byte{}, uint32(0))
	f.Add([]byte("not a segment at all"), uint32(7))
	f.Add(canonical[:len(canonical)/2], uint32(canonicalHeaderLen+3))
	f.Add(canonical, uint32(1))
	f.Add(canonical, uint32(0)) // a full-length final segment with a bad magic
	f.Fuzz(func(t *testing.T, raw []byte, flip uint32) {
		// Property 1: hostile bytes, both file kinds.
		for _, name := range []string{"000000001.seg", "000000001.ckpt"} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := openAgreeing(t, dir)
			if err == nil {
				d.Replay(func([]byte) error { return nil }, func(store.Batch) error { return nil })
				d.Close()
			}
			if _, err := store.VerifyDir(dir); err != nil {
				t.Fatalf("VerifyDir errored on hostile %s: %v", name, err)
			}
		}

		// Properties 2 and 3: single-byte corruption of the canonical store.
		off := int(flip % uint32(len(canonical)))
		mask := byte(flip>>8) | 1 // never a zero flip
		mut := append([]byte(nil), canonical...)
		mut[off] ^= mask
		dir := t.TempDir()
		segPath := filepath.Join(dir, "000000001.seg")
		if err := os.WriteFile(segPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := openAgreeing(t, dir)
		if err != nil {
			t.Fatalf("Open on corrupted store: %v", err)
		}
		var got []store.Batch
		err = d.Replay(nil, func(b store.Batch) error {
			b.Payload = append([]byte(nil), b.Payload...)
			got = append(got, b)
			return nil
		})
		d.Close()
		if err != nil {
			t.Fatalf("Replay on corrupted store: %v", err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("flip at %d: recovered batch %d differs from original", off, i)
			}
		}
		if off >= canonicalHeaderLen {
			// A flip in the record log: the CRC or hash chain must cut the
			// salvage short of the full original …
			if len(got) >= len(want) {
				t.Fatalf("flip at %d undetected: recovered %d of %d batches", off, len(got), len(want))
			}
			// … and the truncated prefix re-verifies cleanly.
			rep, err := store.VerifyDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("flip at %d: salvaged prefix does not re-verify: %v", off, err)
			}
			return
		}
		// A flip in the header: either recovery could not read it
		// (magic/version damage, counted by property 4), or verification
		// must flag the header inconsistency (index or chain-start damage,
		// which recovery keeps for availability but never trusts).
		if len(got) < len(want) {
			return
		}
		if _, err := os.Stat(segPath); os.IsNotExist(err) {
			t.Fatalf("flip at %d: full recovery from a removed segment?", off)
		}
		rep, err := store.VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err() == nil {
			t.Fatalf("flip at %d: header corruption undetected by verify", off)
		}
	})
}

// openAgreeing verifies dir, opens it and checks property 4.
func openAgreeing(t *testing.T, dir string) (*store.Disk, error) {
	t.Helper()
	rep, err := store.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := store.NewMetrics(introspect.New())
	d, err := store.Open(dir, store.Options{Logger: quietLogger(), Metrics: m})
	if err != nil {
		return nil, err
	}
	if failed, counted := rep.Err() != nil, m.RecoveryErrors.Value(); failed != (counted > 0) {
		t.Fatalf("VerifyDir before Open failed=%v (%v), but Open counted %d recovery errors", failed, rep.Err(), counted)
	}
	return d, nil
}
