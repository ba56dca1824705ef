package critpath

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tempest/internal/trace"
	"tempest/internal/tracegen"
)

// FuzzCritPath pins the analyzer's robustness contract:
//
//  1. never panic, whatever the stream shape;
//  2. deterministic: chunked Add == whole-batch Add, byte for byte.
//
// FuzzNode (internal/nodefold) holds it to the Builder's stack discipline
// over the same bytes.
func FuzzCritPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 10, 3, 0, 0, 20})                       // enter/exit pair
	f.Add([]byte{3, 0, 0, 0})                                     // orphan exit
	f.Add([]byte{0, 0, 5, 10, 0, 1, 1, 0x85, 3, 1, 1, 2})         // wait + regression
	f.Add([]byte{0, 0, 9, 1, 3, 0, 9, 1, 6, 2, 9, 1, 7, 3, 4, 1}) // unknown fid, marker, drop
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, sym := tracegen.FuzzEvents(data)
		opts := Options{Timeline: true, MaxTrackSegments: 8}

		whole := New(opts)
		if err := whole.Add(1, sym, evs); err != nil {
			t.Fatalf("Add: %v", err)
		}
		sum := whole.Summary()
		wantJSON, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if sum.Events != uint64(len(evs)) {
			t.Fatalf("Events = %d, want %d", sum.Events, len(evs))
		}
		if sum.DurationS < 0 || sum.SerialS < 0 {
			t.Fatalf("negative totals: %s", wantJSON)
		}
		for _, l := range sum.Lanes {
			if l.BusyS < -1e-9 || l.WaitS < -1e-9 || l.OffS < -1e-9 {
				t.Fatalf("negative lane split: %+v", l)
			}
		}

		// Determinism under chunking.
		chunked := New(opts)
		for i := 0; i < len(evs); i += 3 {
			end := i + 3
			if end > len(evs) {
				end = len(evs)
			}
			if err := chunked.Add(1, sym, evs[i:end]); err != nil {
				t.Fatalf("chunked Add: %v", err)
			}
		}
		gotJSON, err := json.Marshal(chunked.Summary())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("chunked != batch:\n got %s\nwant %s", gotJSON, wantJSON)
		}
		if !reflect.DeepEqual(chunked.Tracks(), whole.Tracks()) {
			t.Fatal("chunked tracks != batch tracks")
		}
	})
}

// refTrack is the timeline track as it was stored before tracks went
// flat: named Segments, neighbours compared by name. FuzzTrack holds
// the analyzer's tracks to it.
type refTrack struct {
	cap  int
	segs []Segment
}

func (r *refTrack) record(seg Segment) {
	if seg.End <= seg.Start {
		return
	}
	if n := len(r.segs); n > 0 {
		last := &r.segs[n-1]
		if last.State == seg.State && last.Func == seg.Func && last.End == seg.Start {
			last.End = seg.End
			return
		}
	}
	if len(r.segs) >= r.cap {
		r.segs = refHalveTrack(r.segs)
	}
	r.segs = append(r.segs, seg)
}

func refHalveTrack(track []Segment) []Segment {
	out := track[:0]
	for i := 0; i < len(track); i += 2 {
		m := track[i]
		if i+1 < len(track) {
			n := track[i+1]
			if n.End-n.Start > m.End-m.Start {
				m.State, m.Func = n.State, n.Func
			}
			m.End = n.End
		}
		out = append(out, m)
	}
	return out
}

// refLane replays one lane's transitions through a refTrack: the stack
// of names open on it, and when its current state began.
type refLane struct {
	id    uint32
	seen  bool
	stack []string
	since time.Duration
	track refTrack
}

func (l *refLane) top() (State, string) {
	if len(l.stack) == 0 {
		return Off, ""
	}
	name := l.stack[len(l.stack)-1]
	if strings.HasPrefix(name, "MPI_") {
		return Wait, name
	}
	return Busy, name
}

// transition closes the lane's current state at ts, as setState does.
func (l *refLane) transition(ts time.Duration) {
	if !l.seen {
		l.seen, l.since = true, ts
	}
	state, name := l.top()
	if state != Off || len(l.track.segs) > 0 {
		l.track.record(Segment{Start: l.since, End: ts, State: state, Func: name})
	}
	l.since = ts
}

// FuzzTrack holds the analyzer's flat tracks to the named reference,
// whatever the transitions: the first byte picks a cap (2, 3 and 512 —
// odd track lengths at the moment of halving — or 4), then every two
// bytes are one enter or exit on one of three lanes after a 0–3 ms step.
// Short steps make equal-length pairs (ties) and zero-length segments;
// re-entering the open function extends an equal neighbour; emptying a
// stack leaves an Off gap.
func FuzzTrack(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x05, 0x04, 0x09, 0x80, 0x02})
	f.Add([]byte{1, 0x01, 0x0d, 0x00, 0x0d, 0x80, 0x01, 0x80, 0x03})
	f.Add([]byte{3, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x80, 0x01, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		caps := []int{2, 3, 4, 512}
		maxSeg := caps[int(data[0])%len(caps)]
		names := []string{"alpha", "beta", "MPI_Barrier", "MPI_Allreduce"}
		sym := trace.NewSymTab()
		fid := map[string]uint32{}
		for _, n := range names {
			fid[n] = sym.Register(n)
		}
		lanes := make([]*refLane, 3)
		var evs []trace.Event
		var ts, now time.Duration
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			id := int(op&0x7f) % len(lanes)
			if lanes[id] == nil {
				lanes[id] = &refLane{id: uint32(id), track: refTrack{cap: maxSeg}}
			}
			l := lanes[id]
			ts += time.Duration(arg&3) * time.Millisecond
			e := trace.Event{TS: ts, Lane: l.id}
			if op&0x80 != 0 && len(l.stack) > 0 {
				name := l.stack[len(l.stack)-1]
				e.Kind, e.FuncID = trace.KindExit, fid[name]
				l.transition(ts)
				l.stack = l.stack[:len(l.stack)-1]
			} else if len(l.stack) < 8 {
				name := names[int(arg>>2)%len(names)]
				e.Kind, e.FuncID = trace.KindEnter, fid[name]
				l.transition(ts)
				l.stack = append(l.stack, name)
			} else {
				continue
			}
			evs = append(evs, e)
			now = ts
		}

		a := New(Options{Timeline: true, MaxTrackSegments: maxSeg})
		if err := a.Add(1, sym, evs); err != nil {
			t.Fatal(err)
		}
		want := []Track{}
		for _, l := range lanes {
			if l == nil {
				continue
			}
			tr := Track{Node: 1, Lane: l.id, Segments: append([]Segment(nil), l.track.segs...)}
			if state, name := l.top(); state != Off && now > l.since {
				open := Segment{Start: l.since, End: now, State: state, Func: name}
				if n := len(tr.Segments); n > 0 && tr.Segments[n-1].State == state &&
					tr.Segments[n-1].Func == name && tr.Segments[n-1].End == l.since {
					tr.Segments[n-1].End = now
				} else {
					tr.Segments = append(tr.Segments, open)
				}
			}
			want = append(want, tr)
		}
		if got := a.Tracks(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d: tracks differ from the named reference:\n got %+v\nwant %+v", maxSeg, got, want)
		}
	})
}
