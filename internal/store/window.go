package store

import (
	"errors"
	"fmt"
)

// The historical read path: the store is not just a recovery artifact —
// a Disk lists the time windows its raw segments cover and streams an
// arbitrary [from, to) wall-clock range of committed batches back out,
// which is how the collector answers "what did node 7 report between
// 14:00 and 14:05" long after ingest moved on.

// WindowInfo describes the batches one raw segment file covers: the
// inclusive wall-clock bounds [FirstWall, LastWall] of its observed
// commits plus how many batches it holds. Active marks the segment still
// receiving appends — its LastWall keeps advancing.
type WindowInfo struct {
	Segment   uint64
	FirstWall int64
	LastWall  int64
	Batches   int
	Active    bool
}

// errStopRange ends a ReadRange scan early once the commit clock passes
// the requested window; never surfaced to callers.
var errStopRange = errors.New("store: stop range scan")

// Windows lists the raw segment windows currently on disk, ascending
// segment index (so ascending time), including the active segment.
func (d *Disk) Windows() []WindowInfo {
	segs := d.raw()
	out := make([]WindowInfo, 0, len(segs))
	for i, sm := range segs {
		if sm.batches > 0 {
			out = append(out, WindowInfo{
				Segment:   sm.index,
				FirstWall: sm.firstWall,
				LastWall:  sm.lastWall,
				Batches:   sm.batches,
				Active:    i == len(d.closed),
			})
		}
	}
	return out
}

// raw lists the segments holding raw history: the closed ones, then the
// active one once it holds a batch.
func (d *Disk) raw() []segMeta {
	if d.f == nil || d.active.batches == 0 {
		return d.closed
	}
	// A full slice expression: the append copies instead of writing into
	// d.closed's spare capacity.
	return append(d.closed[:len(d.closed):len(d.closed)], d.active)
}

// ArchiveBlob returns the current checkpoint archive (nil when no
// compaction has run). The slice is replaced — never mutated — by
// compaction, so callers may decode it without copying.
func (d *Disk) ArchiveBlob() []byte { return d.archive }

// CompactGen counts compactions this store has completed in-process.
// When it changes, the raw/archived split moved: cached decodes of either
// side are stale.
func (d *Disk) CompactGen() uint64 { return d.compactGen }

// ReadRange streams committed batches in commit order from every raw
// segment, the active one included (appends always leave the file on a
// frame boundary, and the owner serialises reads against them). Batches
// whose WallNano lands in [from, to) go to fn; batches before from go to
// prefix (nil to skip) — callers decoding chunk payloads need them,
// because each node's symbol table is cumulative across its whole
// stream. Commit wall clocks are nondecreasing, so the first batch at or
// past to ends the scan. Batches alias scan buffers and are valid only
// during the callback, exactly like Replay.
func (d *Disk) ReadRange(from, to int64, prefix func(Batch) error, fn func(Batch) error) error {
	if d.closedStore {
		return errStoreClosed
	}
	if to <= from || fn == nil {
		return nil
	}
	d.opts.Metrics.RangeReads.Add(1)
	tears, err := walk(d.raw(), func(b Batch) error {
		switch {
		case b.WallNano >= to:
			return errStopRange
		case b.WallNano < from:
			if prefix != nil {
				return prefix(b)
			}
			return nil
		default:
			d.opts.Metrics.RangeBatches.Add(1)
			return fn(b)
		}
	})
	d.flaking("range read", tears)
	if err != nil && !errors.Is(err, errStopRange) {
		return fmt.Errorf("store: range read %w", err)
	}
	return nil
}
