package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Reading a shard directory. Open and VerifyDir both start from one
// read-only survey, so crash recovery and the offline audit cannot
// disagree about what intact history is: recover acts on the findings,
// verifyShard reports them.

// findings is what survey learned about one shard directory.
type findings struct {
	// debris is half-written, superseded or covered files, and a final
	// segment torn inside its header.
	debris    []string
	ckptIndex uint64     // the newest checkpoint's index, 0 = none
	archive   []byte     // its archive blob; nil when it is unreadable
	segs      []*segScan // the live segments whose headers read, ascending
	segIndex  uint64     // the highest index that is not debris
	tornTail  *segScan   // the final segment, when torn past its header
	final     Chain      // the chain after the last intact record
	// problems are history lost or untrustworthy: each fails VerifyDir and
	// counts once on RecoveryErrors. notes describe a torn final segment,
	// the expected shape of a crash, whose torn bytes Open discards
	// without losing anything that was acked.
	problems []string
	notes    []string
	torn     int64
}

func (f *findings) problem(format string, args ...any) {
	f.problems = append(f.problems, fmt.Sprintf(format, args...))
}

func (f *findings) note(format string, args ...any) {
	f.notes = append(f.notes, fmt.Sprintf(format, args...))
}

// survey classifies dir's files, applies "newest checkpoint wins", checks
// that checkpoint and scans every live segment, changing nothing.
func survey(dir string) (*findings, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	f := &findings{}
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
		case "tmp":
			// An interrupted compaction's half-written checkpoint: the
			// rename never happened, so it covers nothing.
			f.debris = append(f.debris, filepath.Join(dir, ent.Name()))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })

	// Older checkpoints and the raw segments the newest one covers are
	// debris from a compaction that crashed between rename and delete.
	haveCkpt := false
	if n := len(ckpts); n > 0 {
		f.ckptIndex, f.segIndex = ckpts[n-1], ckpts[n-1]
		for _, idx := range ckpts[:n-1] {
			f.debris = append(f.debris, ckptPath(dir, idx))
		}
		for len(segs) > 0 && segs[0] <= f.ckptIndex {
			f.debris = append(f.debris, segPath(dir, segs[0]))
			segs = segs[1:]
		}
		path := ckptPath(dir, f.ckptIndex)
		if prevFinal, archive, err := readCheckpoint(path, f.ckptIndex); err != nil {
			// The archived history is lost; the raw segments still replay.
			f.problem("checkpoint %s: %v", filepath.Base(path), err)
		} else {
			f.final, f.archive, haveCkpt = prevFinal, archive, true
		}
	}

	for i, idx := range segs {
		path := segPath(dir, idx)
		name, final := filepath.Base(path), i == len(segs)-1
		sc, err := scanSegmentFile(segMeta{index: idx, path: path}, recBatch, nil)
		if err != nil {
			if final && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				// The process died creating this segment before its header
				// was durable: nothing in it was ever acked.
				f.debris = append(f.debris, path)
				f.torn = fileSize(path)
				f.note("%d-byte torn header on the final segment %s (unrecovered crash; next start removes it)", f.torn, name)
			} else {
				// A full header that is wrong, or a file that will not
				// open: whatever it holds cannot be trusted or replayed.
				f.segIndex = idx
				f.problem("segment %s: %v", name, err)
			}
			continue
		}
		f.segs, f.segIndex = append(f.segs, sc), idx
		if sc.header.index != idx {
			// The index lives in the header, outside any record's CRC or
			// chain: a flip here (or a renamed file) is metadata tampering.
			f.problem("segment %s declares index %d", name, sc.header.index)
		}
		if sc.header.chainStart != f.final {
			if i == 0 && !haveCkpt {
				// The log's root: a fresh store roots at zero; anything else
				// claims continuation of history that no longer exists.
				f.problem("segment %s: chain starts mid-history with no checkpoint", name)
			} else {
				f.problem("segment %s: chain discontinuity with predecessor", name)
			}
		}
		if sc.tear != nil {
			if final {
				f.tornTail, f.torn = sc, fileSize(path)-sc.goodOff
				f.note("%d-byte torn tail on the final segment (unrecovered crash; next start salvages it)", f.torn)
			} else {
				f.problem("segment %s: mid-log tear: %v", name, sc.tear)
			}
		}
		f.final = sc.final
	}
	return f, nil
}

// readCheckpoint reads the checkpoint at path, named for index, and checks
// it: frame CRC, a chain rooted at zero, and exactly one well-formed
// record covering index. The archive is a copy.
func readCheckpoint(path string, index uint64) (prevFinal Chain, archive []byte, err error) {
	found := false
	sc, err := scanSegmentFile(segMeta{index: index, path: path}, recCheckpoint, func(rec record) error {
		if found {
			return fmt.Errorf("more than one checkpoint record")
		}
		covered, pf, blob, err := parseCheckpointBody(rec.body)
		if err != nil {
			return err
		}
		if covered != index {
			return fmt.Errorf("covers index %d, file named %d", covered, index)
		}
		prevFinal, archive, found = pf, append([]byte(nil), blob...), true
		return nil
	})
	switch {
	case err != nil:
		return Chain{}, nil, err
	case sc.tear != nil:
		return Chain{}, nil, sc.tear
	case sc.header.chainStart != (Chain{}):
		return Chain{}, nil, fmt.Errorf("checkpoint chain must root at zero")
	case !found:
		return Chain{}, nil, fmt.Errorf("holds no checkpoint record")
	}
	return prevFinal, archive, nil
}

// parseStoreName classifies one store directory entry.
func parseStoreName(name string) (index uint64, kind string) {
	switch {
	case strings.HasSuffix(name, ".seg"):
		kind = "seg"
	case strings.HasSuffix(name, ".ckpt"):
		kind = "ckpt"
	case strings.HasSuffix(name, ".tmp"):
		return 0, "tmp"
	default:
		return 0, ""
	}
	idx, err := strconv.ParseUint(name[:len(name)-len(filepath.Ext(name))], 10, 64)
	if err != nil {
		return 0, ""
	}
	return idx, kind
}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%09d.seg", index))
}

func ckptPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%09d.ckpt", index))
}

// fileSize is path's size, 0 when it cannot be stat'ed.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
