package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verification: an offline, read-only walk of a store directory that
// proves the hash chain end to end — every frame's CRC, every record's
// chain link, every segment-to-segment and checkpoint-to-segment
// continuity. `tempest-collectd -verify-store` is a thin CLI shell over
// VerifyDir.
//
// A torn tail on the *final* segment is the expected signature of a
// crash that has not been recovered yet; it is reported (TornTailBytes)
// but is not a verification failure, because the next Open will truncate
// it and no acked data lives in it. Corruption anywhere else fails.

// ShardReport is one shard directory's verification result.
type ShardReport struct {
	Dir           string
	Segments      int
	Checkpoints   int
	Batches       int // intact raw batches across surviving segments
	ArchiveBytes  int
	TornTailBytes int64 // unrecovered torn tail on the final segment
	FinalChain    Chain
	Problems      []string
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
		if s.TornTailBytes > 0 {
			fmt.Fprintf(w, "%s: note: %d-byte torn tail on the final segment (unrecovered crash; next start salvages it)\n", s.Dir, s.TornTailBytes)
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
// (shard-NNN subdirectories) or a single shard directory.
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
	rep := &Report{}
	for _, dir := range shardDirs {
		rep.Shards = append(rep.Shards, verifyShard(dir))
	}
	return rep, nil
}

// verifyShard walks one shard directory read-only.
func verifyShard(dir string) ShardReport {
	sr := ShardReport{Dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		sr.Problems = append(sr.Problems, err.Error())
		return sr
	}
	var segs, ckpts []uint64
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		idx, kind := parseStoreName(ent.Name())
		switch kind {
		case "seg":
			segs = append(segs, idx)
		case "ckpt":
			ckpts = append(ckpts, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })

	chain := Chain{}
	haveCkpt := false
	if n := len(ckpts); n > 0 {
		// Only the newest checkpoint is live; older ones and covered
		// segments are recoverable debris, noted but not failures.
		ckptIdx := ckpts[n-1]
		sr.Checkpoints = 1
		kept := segs[:0]
		for _, idx := range segs {
			if idx > ckptIdx {
				kept = append(kept, idx)
			}
		}
		segs = kept
		path := filepath.Join(dir, fmt.Sprintf("%09d.ckpt", ckptIdx))
		prevFinal, archiveLen, err := verifyCheckpointFile(path, ckptIdx)
		if err != nil {
			sr.Problems = append(sr.Problems, fmt.Sprintf("checkpoint %s: %v", filepath.Base(path), err))
		} else {
			chain = prevFinal
			haveCkpt = true
			sr.ArchiveBytes = archiveLen
		}
	}

	for i, idx := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, fmt.Sprintf("%09d.seg", idx))
		sc, err := scanSegmentFile(path, nil)
		if err != nil {
			sr.Problems = append(sr.Problems, fmt.Sprintf("segment %s: %v", filepath.Base(path), err))
			continue
		}
		sr.Segments++
		if sc.header.index != idx {
			sr.Problems = append(sr.Problems, fmt.Sprintf("segment %s declares index %d", filepath.Base(path), sc.header.index))
		}
		if i == 0 && !haveCkpt {
			// The log's root: a fresh store roots at zero; anything else
			// means the prefix this chain continued was deleted.
			if sc.header.chainStart != (Chain{}) {
				sr.Problems = append(sr.Problems, fmt.Sprintf("segment %s: chain starts mid-history with no checkpoint", filepath.Base(path)))
			}
		} else if sc.header.chainStart != chain {
			sr.Problems = append(sr.Problems, fmt.Sprintf("segment %s: chain discontinuity with predecessor", filepath.Base(path)))
		}
		if sc.tear != nil {
			if last {
				fi, statErr := os.Stat(path)
				if statErr == nil {
					sr.TornTailBytes = fi.Size() - sc.goodOff
				}
			} else {
				sr.Problems = append(sr.Problems, fmt.Sprintf("segment %s: mid-log tear: %v", filepath.Base(path), sc.tear))
			}
		}
		sr.Batches += sc.batches
		chain = sc.final
	}
	sr.FinalChain = chain
	return sr
}

// verifyCheckpointFile checks one checkpoint's structure, CRC and chain.
func verifyCheckpointFile(path string, wantIndex uint64) (prevFinal Chain, archiveLen int, err error) {
	found := false
	sc, err := scanSegmentFile(path, func(rec record) error {
		if rec.kind != recCheckpoint || found {
			return fmt.Errorf("unexpected record %q", rec.kind)
		}
		covered, pf, archive, err := parseCheckpointBody(rec.body)
		if err != nil {
			return err
		}
		if covered != wantIndex {
			return fmt.Errorf("covers index %d, file named %d", covered, wantIndex)
		}
		prevFinal = pf
		archiveLen = len(archive)
		found = true
		return nil
	})
	if err != nil {
		return Chain{}, 0, err
	}
	if sc.tear != nil {
		return Chain{}, 0, sc.tear
	}
	if sc.header.chainStart != (Chain{}) {
		return Chain{}, 0, fmt.Errorf("checkpoint chain must root at zero")
	}
	if !found {
		return Chain{}, 0, fmt.Errorf("holds no checkpoint record")
	}
	return prevFinal, archiveLen, nil
}
