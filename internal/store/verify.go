package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Verification: an offline, read-only walk of a store directory that
// proves the hash chain end to end — every frame's CRC, every record's
// chain link, every segment-to-segment and checkpoint-to-segment
// continuity. `tempest-collectd -verify-store` is a thin CLI shell over
// VerifyDir.
//
// A torn tail on the *final* segment, or a final segment cut short inside
// its header, is the expected signature of a crash that has not been
// recovered yet; it is reported (Notes, TornTailBytes) but is not a
// verification failure, because the next Open discards it and no acked
// data lives in it. Corruption anywhere else fails — a full-length final
// header with a wrong magic or version included — exactly what Open
// counts on RecoveryErrors, since both read the directory through survey.

// ShardReport is one shard directory's verification result.
type ShardReport struct {
	Dir           string
	Segments      int
	Checkpoints   int
	Batches       int // intact raw batches across surviving segments
	ArchiveBytes  int
	TornTailBytes int64 // unrecovered torn bytes of the final segment
	FinalChain    Chain
	Problems      []string
	Notes         []string // a torn final segment, which the next start discards
}

// Report is a whole store root's verification result.
type Report struct {
	Shards []ShardReport
}

// Err returns a non-nil error if any shard failed verification.
func (r *Report) Err() error {
	for _, s := range r.Shards {
		if len(s.Problems) > 0 {
			return fmt.Errorf("store: verification failed: %s: %s", s.Dir, s.Problems[0])
		}
	}
	return nil
}

// WriteText renders the report one shard per line.
func (r *Report) WriteText(w io.Writer) {
	for _, s := range r.Shards {
		status := "ok"
		if len(s.Problems) > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s: %s  segments=%d checkpoints=%d batches=%d archive_bytes=%d chain=%s\n",
			s.Dir, status, s.Segments, s.Checkpoints, s.Batches, s.ArchiveBytes, s.FinalChain)
		for _, n := range s.Notes {
			fmt.Fprintf(w, "%s: note: %s\n", s.Dir, n)
		}
		for _, p := range s.Problems {
			fmt.Fprintf(w, "%s: problem: %s\n", s.Dir, p)
		}
	}
	if len(r.Shards) == 0 {
		fmt.Fprintln(w, "no store shards found")
	}
}

// VerifyDir verifies a store root. The root may be a collector store
// (shard-NNN subdirectories) or a single shard directory. Shards are
// audited concurrently, one goroutine each, and reported in name order.
func VerifyDir(root string) (*Report, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var shardDirs []string
	for _, ent := range ents {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "shard-") {
			shardDirs = append(shardDirs, filepath.Join(root, ent.Name()))
		}
	}
	sort.Strings(shardDirs)
	if len(shardDirs) == 0 {
		shardDirs = []string{root}
	}
	rep := &Report{Shards: make([]ShardReport, len(shardDirs))}
	var wg sync.WaitGroup
	for i, dir := range shardDirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.Shards[i] = verifyShard(dir)
		}()
	}
	wg.Wait()
	return rep, nil
}

// verifyShard surveys one shard directory and reports what it found.
func verifyShard(dir string) ShardReport {
	sr := ShardReport{Dir: dir}
	f, err := survey(dir)
	if err != nil {
		sr.Problems = append(sr.Problems, err.Error())
		return sr
	}
	if f.ckptIndex > 0 {
		sr.Checkpoints = 1 // only the newest is live
	}
	sr.ArchiveBytes, sr.Segments = len(f.archive), len(f.segs)
	for _, sc := range f.segs {
		sr.Batches += sc.batches
	}
	sr.TornTailBytes, sr.FinalChain = f.torn, f.final
	sr.Problems, sr.Notes = f.problems, f.notes
	return sr
}
